"""Checks on the source tree itself."""

import ast
import builtins
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "nashflow").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """Invariants must raise typed errors: ``python -O`` strips asserts."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_raise_assertion_error(path):
    """A broken invariant raises a typed ``RuntimeError`` subclass, which
    callers can tell apart and tests cannot mistake for a failed check."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if _raises_assertion_error(node)]
    assert not lines, f"{path.name}: raise AssertionError at lines {lines}"


def test_sources_found():
    assert len(SOURCES) >= 9


def test_benchmark_tracer_names_exist():
    """Every function the benchmark's tracer wraps exists in its layer, so
    ``perfbench/run.py --trace 1`` cannot break on a renamed function."""
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.LAYERS.items():
        module = importlib.import_module(f"nashflow.{layer}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"{layer}.{name}"


def _float_sites(tree, name) -> list:
    """Lines of float literals, calls of ``float``, divisions of two integer
    literals and uses of ``math``, except for the ``INF`` sentinel that
    ``netmodel`` assigns from ``math.inf``."""
    sentinel = set()
    if name == "netmodel.py":
        sentinel = {id(node.value) for node in ast.walk(tree)
                    if isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets] == ["INF"]}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
              and all(isinstance(side, ast.Constant) and type(side.value) is int
                      for side in (node.left, node.right))):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and id(node) not in sentinel):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_arithmetic(path):
    """The core computes over ``Fraction`` only: no speedup may come from
    floats, and ``math`` supplies nothing but the unreachable-node sentinel."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _float_sites(tree, path.name)
    assert not lines, f"{path.name}: float arithmetic at lines {lines}"


def test_float_sites_are_found():
    """The scan sees each kind of float site, and the sentinel only where
    ``netmodel`` assigns it."""
    source = ("import math\nfrom math import sqrt\nINF = math.inf\n"
              "a = 0.5\nb = float(x)\nc = 1 / 2\nd = math.floor(y)\n")
    tree = ast.parse(source)
    assert _float_sites(tree, "netmodel.py") == [2, 4, 5, 6, 7]
    assert _float_sites(tree, "timefn.py") == [2, 3, 4, 5, 6, 7]


def _unused_imports(tree) -> list:
    """Names bound by an import that no ``ast.Name`` in the module reads."""
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    """A deletion leaves no import behind; ``__init__.py`` re-exports, so it
    is not scanned."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = _unused_imports(tree)
    assert not unused, f"{path.name}: unused imports {unused}"


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport a.b\nimport c\n"
              "from d import e, f as g\nc.h(e)\n")
    assert _unused_imports(ast.parse(source)) == ["a", "g"]


def _redundant_local_imports(tree) -> list:
    """(line, name) of every import inside a function that binds a name the
    module already imports at its top."""
    top = {alias.asname or alias.name.split(".")[0]
           for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
           for alias in node.names}
    found = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= {(node.lineno, name) for node in ast.walk(func)
                      if isinstance(node, (ast.Import, ast.ImportFrom))
                      for name in (alias.asname or alias.name.split(".")[0]
                                   for alias in node.names)
                      if name in top}
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_redundant_local_imports(path):
    """A function imports nothing that its module imports at the top."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    redundant = _redundant_local_imports(tree)
    assert not redundant, f"{path.name}: redundant local imports {redundant}"


def test_redundant_local_imports_are_found():
    source = ("from a import b, c as d\nimport e.f\n"
              "def g():\n    from a import b\n    import e\n    from h import i\n"
              "class K:\n    def m(self):\n        from x import d\n"
              "        def n():\n            from a import c\n")
    assert _redundant_local_imports(ast.parse(source)) == [(4, "b"), (5, "e"), (9, "d")]


def _module_table(text) -> dict:
    """Module name -> the back-ticked names in its row of the README's
    module table."""
    rows = {}
    for line in text.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and re.fullmatch(r"`nashflow\.\w+`", cells[0]):
            rows[cells[0].strip("`")] = re.findall(r"`([^`]+)`", cells[1])
    return rows


def test_readme_module_names_exist():
    """Every name the README's module table lists exists in its module, so
    the table cannot keep a name that the code dropped."""
    rows = _module_table((ROOT / "README.md").read_text(encoding="utf-8"))
    assert len(rows) >= 6, rows
    for module_name, names in rows.items():
        module = importlib.import_module(module_name)
        missing = [name for name in names if not hasattr(module, name)]
        assert names and not missing, (module_name, missing)


def _readme_commands(text) -> list:
    """The commands, in order, that the README's "Command line" block runs."""
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split()[1] for line in block.splitlines() if line.startswith("nashflow ")]


def test_readme_names_the_cli_commands():
    """The README's command block runs each command of ``cli.COMMANDS`` once,
    so no command is added or renamed without its documentation."""
    cli = importlib.import_module("nashflow.cli")
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert _readme_commands(text) == list(cli.COMMANDS)


def _violation_codes(tree) -> set:
    """The string first argument of every ``*Violation(...)`` call, and the
    first element of every tuple that a function named ``_conditions``
    appends or yields."""
    codes = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            name = getattr(node.func, "id", getattr(node.func, "attr", ""))
            first = node.args[0]
            if (name.endswith("Violation") and isinstance(first, ast.Constant)
                    and isinstance(first.value, str)):
                codes.add(first.value)
        if isinstance(node, ast.FunctionDef) and node.name == "_conditions":
            for call in ast.walk(node):
                if (isinstance(call, ast.Call) and getattr(call.func, "attr", "") == "append"
                        and call.args):
                    value = call.args[0]
                elif isinstance(call, ast.Yield):
                    value = call.value
                else:
                    continue
                if isinstance(value, ast.Tuple) and value.elts:
                    first = value.elts[0]
                    if isinstance(first, ast.Constant) and isinstance(first.value, str):
                        codes.add(first.value)
    return codes


def _untested(codes, texts) -> list:
    """The codes that no text names as a whole word."""
    return sorted(code for code in codes
                  if not any(re.search(rf"\b{code}\b", text) for text in texts))


def test_violation_codes_are_tested():
    """Every violation code the program can report is named in a test, so
    no check goes unexercised."""
    codes = set()
    for path in SOURCES:
        codes |= _violation_codes(ast.parse(path.read_text(encoding="utf-8")))
    texts = [p.read_text(encoding="utf-8") for p in (ROOT / "tests").glob("*.py")]
    assert len(codes) >= 30, sorted(codes)
    assert not _untested(codes, texts)


def test_untested_codes_are_found():
    source = ('FlowViolation("Alpha", e)\nNashViolation("Beta", j, v)\n'
              'Other("Gamma")\nViolation(code)\n'
              'def _conditions():\n    violations.append(("Delta", v))\n'
              '    yield ("Zeta", v)\n    yield code, v\n    yield\n'
              'def other():\n    violations.append(("Epsilon", v))\n'
              '    yield ("Eta", v)\n')
    codes = _violation_codes(ast.parse(source))
    assert codes == {"Alpha", "Beta", "Delta", "Zeta"}
    assert _untested(codes, ["Alpha", "a Deltas b"]) == ["Beta", "Delta", "Zeta"]


def _builtin_exception(name) -> bool:
    kind = getattr(builtins, name, None)
    return isinstance(kind, type) and issubclass(kind, BaseException)


def _exception_classes(trees) -> set:
    """The classes the modules define that derive, through one another, from
    a built-in exception."""
    defined = {node.name: [getattr(base, "id", getattr(base, "attr", ""))
                           for base in node.bases]
               for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    found = set()
    while True:
        more = {name for name, bases in defined.items() if name not in found
                and any(base in found or _builtin_exception(base) for base in bases)}
        if not more:
            return found
        found |= more


def test_exception_classes_are_tested():
    """Every error type the program defines is named in a test, so none of
    its raises goes unexercised."""
    classes = _exception_classes(
        [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES])
    texts = [p.read_text(encoding="utf-8") for p in (ROOT / "tests").glob("*.py")]
    assert len(classes) >= 20, sorted(classes)
    assert not _untested(classes, texts)


def test_untested_exception_classes_are_found():
    first = ("class Alpha(ValueError):\n    pass\nclass Beta(Alpha):\n    pass\n"
             "class Gamma:\n    pass\nclass Delta(Gamma, Exception):\n    pass\n")
    second = ("class Epsilon(Beta):\n    pass\nclass Zeta(mod.Error):\n    pass\n"
              "class Eta(dict):\n    pass\n")
    classes = _exception_classes([ast.parse(first), ast.parse(second)])
    assert classes == {"Alpha", "Beta", "Delta", "Epsilon"}
    assert _untested(classes, ["raises(Alpha)", "BetaDelta", "Epsilon"]) == ["Beta", "Delta"]


CAMEL_CASE = re.compile(r"(?:[A-Z][A-Z0-9]*[a-z0-9]+){2,}")


def _compared_codes(tree) -> set:
    """The CamelCase string constants of every comparison that reads
    ``.code`` on its other side: ``v.code == "X"``, ``v.code in ("X", "Y")``
    and ``"X" in {v.code for v in report.violations}``."""
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        reads = [any(isinstance(n, ast.Attribute) and n.attr == "code" for n in ast.walk(side))
                 for side in sides]
        if not any(reads):
            continue
        for side, read in zip(sides, reads):
            if not read:
                names |= {n.value for n in ast.walk(side)
                          if isinstance(n, ast.Constant) and isinstance(n.value, str)
                          and CAMEL_CASE.fullmatch(n.value)}
    return names


def test_tests_name_no_retired_code():
    """Every violation code a test compares with ``.code`` is one the
    program still reports, so no test keeps asserting a retired check."""
    codes = set()
    for path in SOURCES:
        codes |= _violation_codes(ast.parse(path.read_text(encoding="utf-8")))
    names = set()
    for path in (ROOT / "tests").glob("*.py"):
        names |= _compared_codes(ast.parse(path.read_text(encoding="utf-8")))
    assert len(names) >= 12, sorted(names)
    assert not names - codes, sorted(names - codes)


def test_compared_codes_are_found():
    source = ('assert v.code == "AlphaCode"\n'
              'assert "BetaCode" in {v.code for v in vs}\n'
              'assert any(v.code in ("GammaCode", "lower", "Delta") for v in vs)\n'
              'assert v.name == "EpsilonCode"\n'
              'assert {"code": "ZetaCode"} == record\n')
    assert _compared_codes(ast.parse(source)) == {"AlphaCode", "BetaCode", "GammaCode"}


def _uncalled_private_functions(trees) -> list:
    """The private functions the modules define (one leading underscore)
    whose name nothing in the modules reads, as a name or an attribute."""
    defined = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    read = {getattr(node, "id", getattr(node, "attr", None)) for tree in trees
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    return sorted(defined - read)


def test_no_uncalled_private_functions():
    """A deletion leaves no private helper behind that only tests call."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    assert not _uncalled_private_functions(trees)


def test_uncalled_private_functions_are_found():
    first = ("def _alpha():\n    pass\ndef _beta():\n    return _gamma\n"
             "def __init__(self):\n    self._delta()\ndef public():\n    pass\n")
    second = ("class C:\n    def _gamma(self):\n        pass\n"
              "    def _delta(self):\n        pass\n    def _epsilon(self):\n"
              "        _alpha.x = 1\n")
    assert _uncalled_private_functions(
        [ast.parse(first), ast.parse(second)]) == ["_beta", "_epsilon"]


def _midpoint_probes(tree) -> set:
    """(innermost enclosing function, or None at module level, line) of
    every ``(x + y) / 2``."""
    found = set()

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Add)
                and isinstance(node.right, ast.Constant) and node.right.value == 2):
            found.add((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_no_midpoint_probes():
    """A check reads the ends of cells on which its quantities are linear,
    not their midpoints.  Only the witness probes of
    ``timefn.first_difference`` and the error path of
    ``loading._split_outflows`` take one."""
    probes = {(path.name, func) for path in SOURCES
              for func, _ in _midpoint_probes(ast.parse(path.read_text(encoding="utf-8")))}
    assert probes == {("timefn.py", "first_difference"), ("loading.py", "_split_outflows")}


def test_midpoint_probes_are_found():
    source = ("m = (a + b) / 2\ndef f(x, y):\n    def g():\n"
              "        return [(u + v) / 2 for u in x]\n"
              "    return (x + y) / 3, (x - y) / 2, x + y / 2, (x + y) // 2\n"
              "class C:\n    def h(self):\n        return (self.a + self.b) / 2\n")
    assert _midpoint_probes(ast.parse(source)) == {(None, 1), ("g", 4), ("h", 8)}


def _passes(call, index, name) -> bool:
    """Whether ``call`` passes the parameter ``name``, at position ``index``
    (None if keyword-only); an unpacked ``*args`` or ``**kwargs`` passes
    every parameter."""
    if (any(isinstance(arg, ast.Starred) for arg in call.args)
            or any(keyword.arg is None for keyword in call.keywords)):
        return True
    return ((index is not None and index < len(call.args))
            or any(keyword.arg == name for keyword in call.keywords))


def _uncalled_options(defining, calling) -> list:
    """``module.function.parameter`` of every defaulted parameter of a
    public module-level function in ``defining`` ({module name: tree}) that
    no call in the ``calling`` trees passes.  Calls are matched by the name
    they call, as a name or an attribute."""
    calls = {}
    for tree in calling:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    found = []
    for module, tree in defining.items():
        for func in tree.body:
            if not isinstance(func, ast.FunctionDef) or func.name.startswith("_"):
                continue
            args = func.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            options = [(k, arg.arg) for k, arg in enumerate(positional) if k >= first]
            options += [(None, arg.arg) for arg, default in
                        zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            found += [f"{module}.{func.name}.{name}" for index, name in options
                      if not any(_passes(call, index, name)
                                 for call in calls.get(func.name, []))]
    return sorted(found)


# options that no production code sets, each with its reason
UNCALLED_OPTIONS = {
    "cli.main.argv": "the seam through which tests drive the console script",
}


def test_every_option_has_a_production_caller():
    """An option that only tests set keeps code that only tests need: every
    defaulted parameter of a public function is passed by some call in
    ``src/`` or ``perfbench/``, but for the listed exemptions."""
    defining = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    calling = [*defining.values(),
               *(ast.parse(path.read_text(encoding="utf-8"))
                 for path in sorted((ROOT / "perfbench").glob("*.py")))]
    assert _uncalled_options(defining, calling) == sorted(UNCALLED_OPTIONS)


def test_uncalled_options_are_found():
    source = ("def f(a, b=1, c=2, *, d=3, e=4, g=None):\n    pass\n"
              "def h(x=1):\n    pass\ndef k(y=1):\n    pass\n"
              "def _private(z=1):\n    pass\n"
              "class C:\n    def m(self, w=1):\n        pass\n"
              "f(0, 1)\nmod.f(0, e=5)\nh(*xs)\nk(**opts)\n")
    tree = ast.parse(source)
    assert _uncalled_options({"mod": tree}, [tree]) == ["mod.f.c", "mod.f.d", "mod.f.g"]
