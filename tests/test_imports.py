"""Every module of the package reads each name it imports, and every
name of the package is read outside the tests.

No linter ships with the test dependencies, so this reads the source with
`ast`: each top-level import binds names, and some `Name` node of the
same module must read each of them (`np` in `np.array` is one). The
package's `__init__.py` is exempt, since its imports are its exports, and
so is `from __future__ import annotations`, which binds nothing used.

Each top-level function, class and constant of the package, and each
method of its classes, must be read, by a loading `Name` or `Attribute`
node or a from-import, other than in its own body: a public name in a
module of the package or in the benchmark, a private (`_name`) one in the
package. A name only tests read is code kept for the tests alone, and an
export in `__init__.py` or a call in a demo keeps no name alive: a name
that only they read is a wrapper the caller can write itself. Dunders are left out, since Python itself
reads them. Names are matched by name only, so a method named like a read
attribute of anything else passes.

The same rule holds the two modules every test shares, `conftest.py` and
`reference_impls.py`, to the tests: each of their top-level defs and
constants is read in `tests/`, and a fixture by a def that takes it as a
parameter.

Each exception class that the package's `__init__.py` exports is raised
by name, as `raise <Name>(...)`, somewhere in the package: an exported
error that nothing raises tells a caller to catch what never comes. There
are two: `InvariantViolation`, for every bad value or scenario file, and
`NonFiniteGradient`.

A run's statistic, seeds and memo come from its caller, and every value
of its scenario from the scenario file: no function of the package gives
such a parameter a default, and no field of `OsraConfig`, `SimConfig`,
`Topology` or `TrafficModel` has a default other than None, which marks
a key the traffic kind may leave out.

Only the loop, `osra`, imports `oracle`: the donors' M/M/1 gradient reads
the simulator's `stage_rates` and the hinge, not a simulated oracle.

The simulator names none of numpy's Python-level wrappers that it once
paid for on every small call (`np.cumsum`, `np.all`, `np.partition`,
`np.column_stack`); it calls the ufunc or ndarray method instead. It also
forms no numpy running max (`np.fmax.accumulate` or
`np.maximum.accumulate`): Lindley's recursion of both queue stages and the
link's overflow episodes run only in the compiled passes of `pipeline.c`.
"""
import ast
import builtins
from pathlib import Path

import pytest

import slicelab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "slicelab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# where the package's public names may be read: its modules and the benchmark
READERS = MODULES + sorted((ROOT / "perfbench").glob("*.py"))
TESTS = ROOT / "tests"


def unused_imports(source: str) -> list[str]:
    """Names that a top-level import of `source` binds and no Name node reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_finds_a_left_over_import():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from functools import partial\nfrom .domain import as_int, whole_fields\n"
              "x = np.zeros(1) + whole_fields\n")
    assert unused_imports(source) == ["os", "partial", "as_int"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def names_read(node, own=frozenset()):
    """Each name a loading Name or Attribute node under `node` reads or a
    from-import imports, leaving out a def's reads of its own name."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        own = own | {node.name}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in own:
        yield node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
            and node.attr not in own:
        yield node.attr
    elif isinstance(node, ast.ImportFrom):
        yield from (a.name for a in node.names)
    for child in ast.iter_child_nodes(node):
        yield from names_read(child, own)


def defined_names(source: str):
    """(qualified name, name, is a fixture) for each top-level function,
    class and constant of `source` and each method of its classes, leaving
    out dunders, which Python itself reads."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs = [(t.id, t.id, False) for t in targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            fixture = any("fixture" in names_read(d) for d in node.decorator_list)
            defs = [(node.name, node.name, fixture)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m.name, False) for m in node.body
                         if isinstance(m, ast.FunctionDef)]
        else:
            continue
        yield from (d for d in defs if not (d[1].startswith("__") and d[1].endswith("__")))


def unread_names(modules: list[str], readers: list[str], private_readers: list[str]) -> list[str]:
    """The names `defined_names` finds in `modules` that no source of
    `readers` names, or for a private (`_name`) one, no source of
    `private_readers`. A fixture is read only by a def that takes it as a
    parameter."""
    def reads(sources):
        """{is a fixture: the names that `sources` read as one}"""
        trees = [ast.parse(source) for source in sources]
        return {False: {name for tree in trees for name in names_read(tree)},
                True: {a.arg for tree in trees for a in ast.walk(tree) if isinstance(a, ast.arg)}}
    public, private = reads(readers), reads(private_readers)
    return [qual for source in modules for qual, name, fixture in defined_names(source)
            if name not in (private if name.startswith("_") else public)[fixture]]


def test_finds_a_name_only_tests_read():
    module = ("def used():\n    return _private()\n\n\ndef only_tested():\n    return used()\n\n\n"
              "def demo_only():\n    return used()\n\n\n"
              "def _private():\n    pass\n\n\nclass Kind:\n    def recurse(self):\n"
              "        return self.recurse()\n")
    reader = "from pkg import Kind\nKind()\n"
    init = "from .mod import Kind, demo_only, used\n"
    demo = "from pkg import demo_only\ndemo_only()\n"
    assert unread_names([module], [module, reader], [module]) == [
        "only_tested", "demo_only", "Kind.recurse"]
    # an export and a demo read a name, but neither is one of READERS
    assert unread_names([module], [module, reader, init, demo], [module]) == [
        "only_tested", "Kind.recurse"]
    assert not {PACKAGE / "__init__.py", *(ROOT / "demos").glob("*.py")} & set(READERS)


def test_finds_an_unread_private_name_helper_and_fixture():
    package = ("__version__ = '1'\n_LIMIT = 3\n_UNREAD = 4\n\n\n"
               "def _unread():\n    return _unread()\n\n\n"
               "def read():\n    return _LIMIT\n")
    user = "from pkg import read, _UNREAD\nread() + _UNREAD\n"
    shared = ("import pytest\nFROZEN = 1.0\n\n\ndef helper():\n    pass\n\n\n"
              "@pytest.fixture\ndef taken():\n    return 1\n\n\n"
              "@pytest.fixture(scope='session')\ndef unused():\n    return 2\n")
    test = "from shared import FROZEN\n\n\ndef test_it(taken):\n    assert FROZEN\n"
    assert unread_names([package], [package, user], [package]) == ["_UNREAD", "_unread"]
    assert unread_names([shared], [shared, test], [shared, test]) == ["helper", "unused"]


def test_every_public_name_is_read_outside_the_tests():
    package = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_names(package, [p.read_text() for p in READERS], package) == []


def test_every_shared_test_name_is_read_by_a_test():
    tests = [p.read_text() for p in sorted(TESTS.glob("*.py"))]
    shared = [(TESTS / name).read_text() for name in ("conftest.py", "reference_impls.py")]
    assert unread_names(shared, tests, tests) == []


def unraised_errors(init: str, modules: list[str]) -> list[str]:
    """The exception classes of `modules` that `init` exports and no
    `raise <Name>(...)` of `modules` raises, in export order."""
    trees = [ast.parse(source) for source in modules]
    bases = {n.name: {b.id for b in n.bases if isinstance(b, ast.Name)}
             for tree in trees for n in tree.body if isinstance(n, ast.ClassDef)}
    errors = {name for name, obj in vars(builtins).items()
              if isinstance(obj, type) and issubclass(obj, BaseException)}
    while new := {name for name, base in bases.items() if name not in errors and base & errors}:
        errors |= new
    raised = {n.exc.func.id for tree in trees for n in ast.walk(tree)
              if isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
              and isinstance(n.exc.func, ast.Name)}
    exported = [a.asname or a.name for n in ast.parse(init).body
                if isinstance(n, ast.ImportFrom) for a in n.names]
    return [name for name in exported if name in bases and name in errors and name not in raised]


def test_finds_an_exported_error_nothing_raises():
    init = "from .a import Kept, Unraised, Plain, check\nfrom .b import Deep\n"
    a = ("class Base(ValueError):\n    pass\n\n\nclass Kept(Base):\n    pass\n\n\n"
         "class Unraised(Base):\n    pass\n\n\nclass Plain:\n    pass\n\n\n"
         "def check(x):\n    try:\n        raise Kept(x)\n    except Unraised:\n"
         "        raise Unraised\n    raise ValueError(x)\n")
    b = "from .a import Kept\n\n\nclass Deep(Kept):\n    pass\n"
    assert unraised_errors(init, [a, b]) == ["Unraised", "Deep"]


def test_every_exported_error_is_raised():
    modules = [p.read_text() for p in MODULES]
    assert unraised_errors((PACKAGE / "__init__.py").read_text(), modules) == []


def test_the_package_exports_two_errors():
    errors = [name for name, obj in vars(slicelab).items()
              if isinstance(obj, type) and issubclass(obj, BaseException)]
    assert sorted(errors) == ["InvariantViolation", "NonFiniteGradient"]


def importers(module: str, sources: dict[str, str]) -> list[str]:
    """The names of `sources` ({module name: source}) whose code imports the
    package's `module`, relatively or by its full name, in name order."""
    def imports(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from (a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = "." * node.level + (node.module or "")
                yield base
                yield from (f"{base.rstrip('.')}.{a.name}" for a in node.names)
    wanted = {f".{module}", f"slicelab.{module}"}
    return sorted(name for name, source in sources.items()
                  if wanted & set(imports(ast.parse(source))))


def test_finds_a_second_importer_of_oracle():
    sources = {"osra": "from .oracle import sim_evaluate\n",
               "penalty": "import math\n\nfrom .oracle import analytic_parts\n",
               "cli": "from . import oracle\n",
               "demo": "def run():\n    import slicelab.oracle\n",
               "baseline": "from .simulator import run_sim\nfrom .oracles import x\n"}
    assert importers("oracle", sources) == ["cli", "demo", "osra", "penalty"]


def test_only_osra_imports_oracle():
    assert importers("oracle", {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}) == ["osra"]


# what a run sets once, from its scenario or the command line: a default on
# a run-path parameter or a scenario value would be a second setter
RUN_VALUES = {"statistic", "keep_raw", "memo", "seed", "seed_base"}
SCENARIO_VALUES = {"OsraConfig", "SimConfig", "Topology", "TrafficModel"}


def second_setters(source: str) -> list[str]:
    """The functions of `source` that give a default to a parameter named in
    RUN_VALUES, and each class named in SCENARIO_VALUES that gives one of
    its fields a default other than None."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            if any(a.arg in RUN_VALUES for a in defaulted):
                found.append(node.name)
        elif isinstance(node, ast.ClassDef) and node.name in SCENARIO_VALUES:
            if any(isinstance(f, ast.AnnAssign) and f.value is not None
                   and not (isinstance(f.value, ast.Constant) and f.value.value is None)
                   for f in node.body):
                found.append(node.name)
    return found


def test_finds_a_second_setter():
    source = ("def run(x, seed=0, memory=None):\n    pass\n\n\n"
              "def ok(seed, n=3, *, memo, clamp=False):\n    pass\n\n\n"
              "def summarize(r, *, keep_raw=False):\n    pass\n\n\n"
              "class OsraConfig:\n    eta: float\n    probes: int = 10\n\n\n"
              "class Topology:\n    edges: tuple\n    buffer_pkts: int = 100\n\n\n"
              "class TrafficModel:\n    kind: str\n    _: KW_ONLY\n"
              "    size_mean: float | None = None\n")
    assert second_setters(source) == ["run", "summarize", "OsraConfig", "Topology"]


def test_the_scenario_and_the_caller_are_the_only_setters():
    found = [name for p in sorted(PACKAGE.glob("*.py")) for name in second_setters(p.read_text())]
    assert found == []


# wrappers around a ufunc or ndarray method whose Python layer cost a small
# simulation more than its packets did
NUMPY_WRAPPERS = {"cumsum", "all", "partition", "column_stack"}


def numpy_wrappers(source: str) -> list[str]:
    """Each `np.<name>` of `source` with name in NUMPY_WRAPPERS, in source order."""
    found = [(n.lineno, n.col_offset, f"np.{n.attr}") for n in ast.walk(ast.parse(source))
             if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
             and n.value.id == "np" and n.attr in NUMPY_WRAPPERS]
    return [name for *_, name in sorted(found)]


def test_finds_a_numpy_wrapper():
    source = ("import numpy as np\nx = np.cumsum(a)\ny = np.add.accumulate(a, out=a)\n"
              "z = a.all() and np.all(a)\nw = np.partition(a, 3)[3] + a.cumsum()\n"
              "stack = np.column_stack\n")
    assert numpy_wrappers(source) == ["np.cumsum", "np.all", "np.partition", "np.column_stack"]


def test_the_simulator_calls_no_numpy_wrapper():
    assert numpy_wrappers((PACKAGE / "simulator.py").read_text()) == []


def running_maxima(source: str) -> list[tuple[str, str]]:
    """(top-level def, "<ufunc>.accumulate") for each fmax or maximum
    running max of `source`, in source order; "<module>" outside a def."""
    found = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        found += [(n.lineno, n.col_offset, owner, f"{n.value.attr}.accumulate")
                  for n in ast.walk(top)
                  if isinstance(n, ast.Attribute) and n.attr == "accumulate"
                  and isinstance(n.value, ast.Attribute) and n.value.attr in ("fmax", "maximum")]
    return [(owner, call) for *_, owner, call in sorted(found)]


def test_finds_a_second_running_max():
    source = ("import numpy as np\n\n\ndef _lindley(t, out):\n"
              "    return np.fmax.accumulate(out, out=out)\n\n\n"
              "def _link_stage(d):\n    np.add.accumulate(d, out=d)\n"
              "    return np.maximum.accumulate(d) + np.fmax(d, 1.0)\n\n\n"
              "peak = np.fmax.accumulate\n")
    assert running_maxima(source) == [("_lindley", "fmax.accumulate"),
                                      ("_link_stage", "maximum.accumulate"),
                                      ("<module>", "fmax.accumulate")]


def test_the_simulator_forms_no_running_max():
    assert running_maxima((PACKAGE / "simulator.py").read_text()) == []
