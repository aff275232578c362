"""Command-line front end.

Subcommands: validate, load, thinflow, nash, verify, labels.  Machine
formats carry rationals as integers or "p/q" strings; reports are written
even on failure so runs can be diffed.  Exit codes: 0 success or
certificate, 1 violations (report written), 2 input errors, 3 internal
errors (a broken invariant of the program itself).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from pathlib import Path

from . import labels as labels_mod
from . import nash as nash_mod
from .loading import (LoadingInvariantBroken, check_feasibility, derive_profile,
                      flow_from_json, flow_to_json, inflows_from_json, load_network)
from .netmodel import (COMMON_DESTINATION, COMMON_ORIGIN, InvalidDerivedInstance,
                       instance_to_json, load_instance, validate_instance)
from .rationals import parse_rational
from .thinflow import (DecompositionError, solve_thinflow_multisource,
                       solve_thinflow_single)
from .timefn import SweepInvariantBroken

# faults of the program rather than of its input: exit code 3
PROGRAM_FAULTS = (SweepInvariantBroken, LoadingInvariantBroken, DecompositionError,
                  nash_mod.FlowReconstructionError, InvalidDerivedInstance)


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_report(path, doc, quiet):
    if path:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if not quiet:
            print(f"report written to {path}")


def _valid_instance(path):
    """The validated instance at ``path``; otherwise a ValueError listing
    every violation, which ``main`` reports with exit code 2."""
    instance = validate_instance(load_instance(path))
    if isinstance(instance, list):
        raise ValueError("; ".join(map(str, instance)))
    return instance


def _export_csvs(report_path, functions):
    """Write each function of ``functions`` (name -> function) to
    ``<stem>_<name>.csv`` next to the report."""
    stem = Path(report_path).with_suffix("")
    for name, fn in functions.items():
        with open(f"{stem}_{name}.csv", "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(fn.csv_rows())


def _outcome(violations, message, quiet, failure=1):
    """Exit code ``failure`` with the violations on stderr, or 0 with
    ``message``."""
    if violations:
        for v in violations:
            print(str(v), file=sys.stderr)
        return failure
    if not quiet:
        print(message)
    return 0


def cmd_validate(args):
    result = validate_instance(load_instance(args.instance))
    violations = result if isinstance(result, list) else []
    doc = {"ok": not violations, "violations": [v.record() for v in violations]}
    _write_report(args.out, doc, args.quiet)
    return _outcome(violations, "instance valid", args.quiet, failure=2)


def cmd_load(args):
    instance = _valid_instance(args.instance)
    inflows = inflows_from_json(_read_json(args.flowrates))
    horizon = parse_rational(args.horizon) if args.horizon else None
    flow, profile = load_network(instance, inflows, horizon)
    report = check_feasibility(instance, flow, profile)
    doc = {"feasibility": report.to_json(), "flow": flow_to_json(instance, flow)}
    if args.format == "json":
        doc["queues"] = {e: profile.volume[e].to_json() for e in profile.volume}
        doc["exit_times"] = {e: profile.exit_time[e].to_json() for e in profile.exit_time}
        _write_report(args.out, doc, args.quiet)
    else:
        _write_report(args.out, {"feasibility": report.to_json()}, args.quiet)
        for kind, functions in (("queue", profile.volume), ("waiting", profile.waiting),
                                ("exit", profile.exit_time)):
            _export_csvs(args.out, {f"{kind}_{e}": fn for e, fn in functions.items()})
    return _outcome(report.violations, "loaded; flow dynamics certified", args.quiet)


def cmd_thinflow(args):
    instance = _valid_instance(args.instance)
    config = _read_json(args.config)
    active = [str(e) for e in config["active"]]
    resetting = [str(e) for e in config.get("resetting", [])]
    if "sources" in config:
        sources = {str(j): (str(s["node"]), parse_rational(s["rate"]))
                   for j, s in config["sources"].items()}
        thin = solve_thinflow_multisource(instance, active, resetting, sources,
                                          str(config["sink"]))
    else:
        thin = solve_thinflow_single(
            instance, active, resetting, str(config["source"]),
            str(config["sink"]), parse_rational(config["rate"]),
            parse_rational(config.get("value", 1)))
    _write_report(args.out, thin.to_json(), args.quiet)
    return _outcome([], "thin flow solved", args.quiet)


def _construct(instance, args):
    horizon = parse_rational(args.horizon) if args.horizon else None
    if instance.mode == COMMON_ORIGIN:
        return nash_mod.construct_common_origin(instance, horizon, args.max_phases)
    if instance.mode == COMMON_DESTINATION:
        if horizon is None:
            raise ValueError("common-destination construction needs --horizon")
        return nash_mod.construct_common_destination(instance, horizon,
                                                     args.max_phases)
    return nash_mod.construct_nash_single(instance, horizon, args.max_phases)


def cmd_nash(args):
    instance = _valid_instance(args.instance)
    result = _construct(instance, args)
    # construct-then-verify gate: never exit 0 on an uncertified equilibrium
    report = nash_mod.verify_nash(result.instance, result.flow)
    doc = result.to_json()
    doc["verification"] = report.to_json()
    _write_report(args.out, doc, args.quiet)
    # the flow belongs to the effective instance, whose inflow intervals end
    # where the construction stopped
    _write_report(f"{Path(args.out).with_suffix('')}_instance.json",
                  instance_to_json(result.instance), args.quiet)
    if args.format == "csv":
        _export_csvs(args.out, {f"label_{v}": fn for v, fn in result.node_labels.items()})
    return _outcome(report.violations,
                    f"equilibrium constructed: {len(result.phases)} phases, verified",
                    args.quiet)


def cmd_verify(args):
    instance = _valid_instance(args.instance)
    flow = flow_from_json(instance, _read_json(args.flow))
    report = nash_mod.verify_nash(instance, flow)
    _write_report(args.out, report.to_json(), args.quiet)
    return _outcome(report.feasibility.violations + report.violations,
                    "equilibrium certified", args.quiet)


def cmd_labels(args):
    instance = _valid_instance(args.instance)
    flow = flow_from_json(instance, _read_json(args.flow))
    profile = derive_profile(instance, flow)
    ls = labels_mod.earliest_arrival(instance, profile, args.commodity)
    doc = {"commodity": args.commodity,
           "labels": {v: f.to_json() for v, f in sorted(ls.labels.items())}}
    _write_report(args.out, doc, args.quiet)
    if args.format == "csv":
        _export_csvs(args.out, ls.labels)
    return _outcome([], f"labels computed for commodity {args.commodity}", args.quiet)


# name -> (handler, help, positional arguments, further options as flag ->
# keyword arguments of add_argument, default report path); the path is a
# format string over the arguments, and validate writes a report only where
# --out names one
COMMANDS = {
    "validate": (cmd_validate, "check instance invariants", ("instance",), {}, None),
    "load": (cmd_load, "load inflow rates through the network",
             ("instance", "flowrates"), {"--horizon": {}}, "load_report.json"),
    "thinflow": (cmd_thinflow, "solve a thin flow configuration",
                 ("instance", "config"), {}, "thinflow.json"),
    "nash": (cmd_nash, "construct an equilibrium (by instance mode); its flow "
             "belongs to the effective instance, written to <stem>_instance.json "
             "beside the report", ("instance",),
             {"--horizon": {"help": "particle horizon (rational)"},
              "--max-phases": {"type": int, "default": 500}}, "nash.json"),
    "verify": (cmd_verify, "verify equilibrium conditions of a flow",
               ("instance", "flow"), {}, "verify_report.json"),
    "labels": (cmd_labels, "earliest-arrival labels of a commodity",
               ("instance", "flow", "commodity"), {}, "labels_{commodity}.json"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nashflow",
        description="Exact dynamic-equilibrium toolkit for the deterministic "
                    "queueing model")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, text, positionals, options, report) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for arg in positionals:
            p.add_argument(arg)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        p.add_argument("--out", help="report path (written even on failure)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--quiet", action="store_true")
        p.set_defaults(func=handler, report=report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not args.out and args.report:
        args.out = args.report.format(**vars(args))
    try:
        return args.func(args)
    except PROGRAM_FAULTS as exc:
        failure, kind, code = exc, "internal error", 3
    except (ValueError, KeyError, OSError, RuntimeError,
            json.JSONDecodeError) as exc:
        failure, kind, code = exc, "error", 2
    print(f"{kind}: {failure}", file=sys.stderr)
    # a report on every failure; one that cannot be written changes no exit code
    with contextlib.suppress(OSError):
        _write_report(args.out, {"ok": False, "error": str(failure)}, args.quiet)
    return code


if __name__ == "__main__":
    sys.exit(main())
