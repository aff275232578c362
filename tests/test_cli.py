import json
from fractions import Fraction

import pytest

from nashflow import cli as cli_mod
from nashflow import labels as labels_mod
from nashflow import nash as nash_mod
from nashflow.cli import main
from nashflow.netmodel import (Arc, Commodity, Instance, InvalidDerivedInstance,
                               instance_to_json)
from nashflow.loading import LoadingInvariantBroken, flow_to_json, load_network
from nashflow.nash import FlowReconstructionError
from nashflow.thinflow import DecompositionError
from nashflow.timefn import StepFunction, SweepInvariantBroken

from corpus import single_arc_canonical

F = Fraction


@pytest.fixture
def single_arc_file(tmp_path):
    path = tmp_path / "single_arc.json"
    path.write_text(json.dumps(instance_to_json(single_arc_canonical())))
    return path


@pytest.fixture
def bad_instance_file(tmp_path):
    doc = instance_to_json(single_arc_canonical())
    doc["arcs"][0]["capacity"] = 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return path


def test_validate_ok(single_arc_file, capsys):
    assert main(["validate", str(single_arc_file), "--quiet"]) == 0


def test_validate_bad_capacity(bad_instance_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["validate", str(bad_instance_file), "--out", str(out)])
    assert code == 2
    assert "NonPositiveCapacity" in capsys.readouterr().err
    assert json.loads(out.read_text())["ok"] is False


@pytest.mark.parametrize("command,extra", [("load", ["rates.json"]),
                                           ("thinflow", ["config.json"]),
                                           ("nash", []),
                                           ("verify", ["flow.json"]),
                                           ("labels", ["flow.json", "1"])])
def test_invalid_instance_is_exit_2(command, extra, tmp_path, capsys):
    doc = instance_to_json(single_arc_canonical())
    doc["arcs"][0]["capacity"] = 0
    doc["arcs"][0]["transit"] = -1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    code = main([command, str(path)] + [str(tmp_path / x) for x in extra]
                + ["--out", str(out), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "NonPositiveCapacity(e)" in err and "NegativeTransit(e)" in err
    assert json.loads(out.read_text()) == {"ok": False,
                                           "error": err[len("error: "):].strip()}


@pytest.mark.parametrize("command,extra,default", [
    ("load", ["rates.json"], "load_report.json"),
    ("thinflow", ["config.json"], "thinflow.json"),
    ("nash", [], "nash.json"),
    ("verify", ["flow.json"], "verify_report.json"),
    ("labels", ["flow.json", "1"], "labels_1.json")])
def test_failure_report_at_default_path(command, extra, default, bad_instance_file,
                                        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([command, str(bad_instance_file)] + extra + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert json.loads((tmp_path / default).read_text()) == {
        "ok": False, "error": err[len("error: "):].strip()}


@pytest.mark.parametrize("command", ["validate", "nash"])
def test_origin_is_destination_is_exit_2(command, tmp_path, capsys):
    doc = instance_to_json(single_arc_canonical())
    doc["commodities"][0]["destination"] = "s"
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(doc))
    code = main([command, str(path), "--out", str(tmp_path / "out.json"), "--quiet"])
    assert code == 2
    assert "OriginIsDestination(1)" in capsys.readouterr().err


def test_nash_single_arc_csv(single_arc_file, tmp_path):
    out = tmp_path / "nash.json"
    code = main(["nash", str(single_arc_file), "--horizon", "2",
                 "--format", "csv", "--out", str(out), "--quiet"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["verification"]["ok"] is True
    assert len(doc["phases"]) >= 1
    label_csv = tmp_path / "nash_label_t.csv"
    assert label_csv.exists()
    rows = label_csv.read_text().strip().splitlines()
    assert rows[0] == "breakpoint,value"


def test_nash_deterministic_bytes(single_arc_file, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["nash", str(single_arc_file), "--horizon", "2",
                 "--out", str(a), "--quiet"]) == 0
    assert main(["nash", str(single_arc_file), "--horizon", "2",
                 "--out", str(b), "--quiet"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_certifies_constructed_flow(single_arc_file, tmp_path):
    nash_out = tmp_path / "nash.json"
    main(["nash", str(single_arc_file), "--out", str(nash_out), "--quiet"])
    flow_doc = json.loads(nash_out.read_text())["flow"]
    flow_file = tmp_path / "flow.json"
    flow_file.write_text(json.dumps(flow_doc))
    assert main(["verify", str(single_arc_file), str(flow_file),
                 "--out", str(tmp_path / "v.json"), "--quiet"]) == 0


def test_nash_flow_verifies_on_its_effective_instance(tmp_path):
    """Over the corpus in all three modes, ``verify`` and ``labels`` accept
    the flow of a ``nash`` report read with the effective instance that
    ``nash`` writes beside the report."""
    from corpus import corpus
    modes = set()
    for name, instance, horizon in corpus():
        modes.add(instance.mode)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(instance_to_json(instance)))
        out = tmp_path / f"{name}_nash.json"
        assert main(["nash", str(path), "--horizon", str(horizon), "--out", str(out),
                     "--quiet"]) == 0, name
        flow = tmp_path / f"{name}_flow.json"
        flow.write_text(json.dumps(json.loads(out.read_text())["flow"]))
        effective = str(tmp_path / f"{name}_nash_instance.json")
        assert main(["verify", effective, str(flow), "--out", str(tmp_path / "verify.json"),
                     "--quiet"]) == 0, name
        for c in instance.commodities:
            assert main(["labels", effective, str(flow), c.id,
                         "--out", str(tmp_path / "labels.json"), "--quiet"]) == 0, name
    assert modes == {"general", "commonOrigin", "commonDestination"}


def test_verify_corrupted_flow(single_arc_file, tmp_path, capsys):
    instance = single_arc_canonical()
    halved, _ = load_network(instance, {("1", "e"): StepFunction([0, 1], [2, 0], 0)})
    halved = flow_to_json(instance, halved)
    halved["outflows"][0]["rate"]["values"] = ["1/2", 0]
    # an outflow that never stops: the exit time stops rising
    endless, _ = load_network(instance, {("1", "e"): StepFunction([0, 1], [1, 0], 0)})
    endless = flow_to_json(instance, endless)
    endless["outflows"][0]["rate"] = StepFunction([1], [1], 0).to_json()
    for name, doc in (("halved", halved), ("endless", endless)):
        flow_file = tmp_path / f"{name}_flow.json"
        flow_file.write_text(json.dumps(doc))
        out = tmp_path / f"{name}_report.json"
        code = main(["verify", str(single_arc_file), str(flow_file),
                     "--out", str(out), "--quiet"])
        assert code == 1, name
        assert json.loads(out.read_text())["ok"] is False, name


def test_verify_negative_inflow(tmp_path, capsys):
    # rates 2 into e1 and -1 into e2 conserve the source's rate 1 and load
    # without queues, yet a negative inflow is no flow over time
    instance = Instance(("s", "t"), (Arc("e1", "s", "t", F(1), F(2)),
                                     Arc("e2", "s", "t", F(1), F(1))),
                        (Commodity("1", "s", "t", F(1), F(0), F(1)),))
    path = tmp_path / "two_arcs.json"
    path.write_text(json.dumps(instance_to_json(instance)))
    rates = {"e1": StepFunction([0, 1], [2, 0], 0), "e2": StepFunction([0, 1], [-1, 0], 0)}
    doc = {"inflows": [{"commodity": "1", "arc": e, "rate": f.to_json()}
                       for e, f in rates.items()],
           "outflows": [{"commodity": "1", "arc": e, "rate": f.shift(1).to_json()}
                        for e, f in rates.items()]}
    flow_file = tmp_path / "flow.json"
    flow_file.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(["verify", str(path), str(flow_file), "--out", str(out), "--quiet"]) == 1
    assert "NegativeInflow(1,e2) at 0" in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert report["feasibility"]["violations"] == [
        {"code": "NegativeInflow", "subject": "1,e2", "where": "0"}]


@pytest.mark.parametrize("command,key", [("verify", "inflows"), ("verify", "outflows"),
                                         ("load", "inflows")])
def test_unknown_flow_entry_is_exit_2(command, key, single_arc_file, tmp_path, capsys):
    instance = single_arc_canonical()
    flow, _ = load_network(instance, {("1", "e"): StepFunction([0, 1], [2, 0], 0)})
    doc = flow_to_json(instance, flow)
    doc[key].append({"commodity": "9", "arc": "zz",
                     "rate": StepFunction([0, 1], [5, 0], 0).to_json()})
    flow_file = tmp_path / "flow.json"
    flow_file.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main([command, str(single_arc_file), str(flow_file), "--out", str(out),
                 "--quiet"]) == 2
    assert "(9, zz)" in capsys.readouterr().err
    assert json.loads(out.read_text())["ok"] is False


def test_load_command(single_arc_file, tmp_path):
    rates = {"inflows": [{"commodity": "1", "arc": "e",
                          "rate": {"breakpoints": [0, 1], "values": [2, 0],
                                   "initial": 0}}]}
    rates_file = tmp_path / "rates.json"
    rates_file.write_text(json.dumps(rates))
    out = tmp_path / "load.json"
    code = main(["load", str(single_arc_file), str(rates_file),
                 "--horizon", "1", "--out", str(out), "--quiet"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["feasibility"]["ok"] is True
    assert doc["queues"]["e"]["values"] == [0, 1, 0]


def test_thinflow_command(single_arc_file, tmp_path):
    config = {"active": ["e"], "resetting": [], "source": "s", "sink": "t",
              "rate": 2}
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config))
    out = tmp_path / "thin.json"
    code = main(["thinflow", str(single_arc_file), str(config_file),
                 "--out", str(out), "--quiet"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["flow"]["e"] == 1
    assert doc["label_slopes"]["t"] == 1
    assert doc["label_slopes"]["s"] == "1/2"


def test_thinflow_zero_rate_is_exit_2(single_arc_file, tmp_path, capsys):
    config = {"active": ["e"], "resetting": [], "source": "s", "sink": "t",
              "rate": 0}
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config))
    code = main(["thinflow", str(single_arc_file), str(config_file),
                 "--out", str(tmp_path / "thin.json"), "--quiet"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: rate must be positive")


def test_nash_constructor_failure_writes_report(single_arc_file, tmp_path, capsys):
    out = tmp_path / "r" / "n.json"
    code = main(["nash", str(single_arc_file), "--max-phases", "1",
                 "--horizon", "4", "--out", str(out), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert json.loads(out.read_text()) == {"ok": False,
                                           "error": err[len("error: "):].strip()}


def test_nash_shared_source_is_exit_2(tmp_path, capsys):
    inst = Instance(("s", "t"), (Arc("e", "s", "t", F(1), F(1)),),
                    (Commodity("1", "s", "t", F(1)), Commodity("2", "s", "t", F(1))),
                    "commonDestination")
    path = tmp_path / "shared.json"
    path.write_text(json.dumps(instance_to_json(inst)))
    out = tmp_path / "n.json"
    code = main(["nash", str(path), "--horizon", "2", "--out", str(out), "--quiet"])
    assert code == 2
    assert capsys.readouterr().err == "error: sources must be distinct nodes\n"
    assert json.loads(out.read_text()) == {"ok": False,
                                           "error": "sources must be distinct nodes"}


def test_nash_keeps_grouping_arcs_apart_from_instance_arcs(tmp_path):
    """An instance arc named like an arc of the virtual super source that
    groups the paths by source (``__from_source_1__``) leaves both in place:
    the grouping arc takes a name the instance lacks."""
    inst = Instance(("s1", "s2", "v", "t"),
                    (Arc("__from_source_1__", "s1", "v", F(1), F(1)),
                     Arc("b", "s2", "v", F(1), F(1)), Arc("c", "v", "t", F(1), F(1))),
                    (Commodity("1", "s1", "t", F(1)), Commodity("2", "s2", "t", F(1))),
                    "commonDestination")
    path = tmp_path / "clash.json"
    path.write_text(json.dumps(instance_to_json(inst)))
    out = tmp_path / "n.json"
    code = main(["nash", str(path), "--horizon", "2", "--out", str(out), "--quiet"])
    assert code == 0
    assert json.loads(out.read_text())["verification"]["ok"] is True


@pytest.fixture
def command_inputs(tmp_path):
    """Valid inputs of the five commands that take an instance and more:
    command -> the arguments after the instance file."""
    instance = single_arc_canonical()
    one = StepFunction([0, 1], [2, 0], 0)
    flow, _ = load_network(instance, {("1", "e"): one})
    files = {"rates.json": {"inflows": [{"commodity": "1", "arc": "e",
                                         "rate": one.to_json()}]},
             "config.json": {"active": ["e"], "resetting": [], "source": "s",
                             "sink": "t", "rate": 2},
             "flow.json": flow_to_json(instance, flow)}
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    return {"load": [str(tmp_path / "rates.json")],
            "thinflow": [str(tmp_path / "config.json")],
            "nash": ["--horizon", "2"],
            "verify": [str(tmp_path / "flow.json")],
            "labels": [str(tmp_path / "flow.json"), "1"]}


# command -> (module, name) of one function the command calls
FAULT_SITES = {"load": (cli_mod, "load_network"),
               "thinflow": (cli_mod, "solve_thinflow_single"),
               "nash": (nash_mod, "construct_nash_single"),
               "verify": (nash_mod, "verify_nash"),
               "labels": (labels_mod, "earliest_arrival")}


@pytest.mark.parametrize("fault", [SweepInvariantBroken, LoadingInvariantBroken,
                                   FlowReconstructionError, DecompositionError,
                                   InvalidDerivedInstance],
                         ids=lambda cls: cls.__name__)
def test_program_fault_is_exit_3_with_report(fault, single_arc_file, command_inputs,
                                             tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise fault("invariant broken here")

    for command, (module, name) in FAULT_SITES.items():
        out = tmp_path / f"{command}_report.json"
        with monkeypatch.context() as patch:
            patch.setattr(module, name, broken)
            code = main([command, str(single_arc_file)] + command_inputs[command]
                        + ["--out", str(out), "--quiet"])
        assert code == 3, command
        assert capsys.readouterr().err == "internal error: invariant broken here\n"
        assert json.loads(out.read_text()) == {"ok": False,
                                               "error": "invariant broken here"}


def test_labels_command(single_arc_file, tmp_path):
    instance = single_arc_canonical()
    flow, _ = load_network(instance,
                           {("1", "e"): StepFunction([0, 1], [2, 0], 0)})
    flow_file = tmp_path / "flow.json"
    flow_file.write_text(json.dumps(flow_to_json(instance, flow)))
    out = tmp_path / "labels.json"
    code = main(["labels", str(single_arc_file), str(flow_file), "1",
                 "--out", str(out), "--quiet"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert "t" in doc["labels"]


def test_unparseable_input_is_exit_2(tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text("{not json")
    assert main(["validate", str(bogus)]) == 2


def test_common_origin_dispatch(tmp_path):
    from corpus import corpus
    inst = next(i for n, i, _ in corpus() if n == "origin_two_sinks")
    path = tmp_path / "origin.json"
    path.write_text(json.dumps(instance_to_json(inst)))
    out = tmp_path / "nash.json"
    code = main(["nash", str(path), "--horizon", "2", "--out", str(out),
                 "--quiet"])
    assert code == 0
    assert json.loads(out.read_text())["verification"]["ok"] is True


def test_unknown_commodity_is_named(single_arc_file, command_inputs, tmp_path, capsys):
    out = tmp_path / "labels.json"
    flow_file = command_inputs["labels"][0]
    assert main(["labels", str(single_arc_file), flow_file, "9", "--out", str(out),
                 "--quiet"]) == 2
    assert capsys.readouterr().err == "error: the instance has no commodity 9\n"
    assert json.loads(out.read_text()) == {"ok": False,
                                           "error": "the instance has no commodity 9"}


def test_unknown_arc_is_named(single_arc_file, tmp_path, capsys):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"active": ["zz"], "resetting": [], "source": "s",
                                       "sink": "t", "rate": 2}))
    out = tmp_path / "thin.json"
    assert main(["thinflow", str(single_arc_file), str(config_file), "--out", str(out),
                 "--quiet"]) == 2
    assert capsys.readouterr().err == "error: the instance has no arc zz\n"
    assert json.loads(out.read_text()) == {"ok": False, "error": "the instance has no arc zz"}


COMMON_OPTIONS = {"out": None, "format": "json", "quiet": False}
# command -> positional arguments, further options with their defaults, and
# the default report path when the arguments are named as below
COMMAND_TABLE = [
    ("validate", ["instance"], {}, None),
    ("load", ["instance", "flowrates"], {"horizon": None}, "load_report.json"),
    ("thinflow", ["instance", "config"], {}, "thinflow.json"),
    ("nash", ["instance"], {"horizon": None, "max_phases": 500}, "nash.json"),
    ("verify", ["instance", "flow"], {}, "verify_report.json"),
    ("labels", ["instance", "flow", "commodity"], {}, "labels_7.json"),
]


def _arguments(positionals):
    """Values of the positional arguments: commodity 7, files that do not exist."""
    return {arg: "7" if arg == "commodity" else f"{arg}.json" for arg in positionals}


@pytest.mark.parametrize("command,positionals,options,report", COMMAND_TABLE,
                         ids=[row[0] for row in COMMAND_TABLE])
def test_command_table(command, positionals, options, report, tmp_path, monkeypatch,
                       capsys):
    values = _arguments(positionals)
    args = vars(cli_mod.build_parser().parse_args([command] + list(values.values())))
    assert {arg: args.pop(arg) for arg in positionals} == values
    assert args.pop("command") == command
    assert callable(args.pop("func"))
    args.pop("report", None)  # the table's own default, read by main
    assert args == {**COMMON_OPTIONS, **options}
    # the inputs are missing: exit 2 with a report at the default path
    monkeypatch.chdir(tmp_path)
    assert main([command] + list(values.values()) + ["--quiet"]) == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ([report] if report else [])


def test_help_lists_the_commands_in_order(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert "{validate,load,thinflow,nash,verify,labels}" in capsys.readouterr().out
    assert list(cli_mod.COMMANDS) == [row[0] for row in COMMAND_TABLE]
