"""Source hygiene checks that need only the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "slqheat").glob("*.py"))
MODULES = SRC + sorted((ROOT / "tests").glob("*.py"))

# Documented entry points, exempt from the unreferenced-code check because
# their callers live outside src/: the harness (make_config, run_study),
# the console script (cli.main), and FemSpace.from_eigen, the documented
# way from eigen coordinates back to nodal values.
ENTRY_POINTS = {"make_config", "run_study", "main", "FemSpace.from_eigen"}


def unused_imports(source):
    """Names a module imports but never reads, in order of import."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_import_detection():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nnp.zeros(c)\n"
    assert unused_imports(source) == ["os", "e"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def top_definitions(tree):
    """(label, name, node) of the top-level functions and classes of a module
    and of the non-dunder methods and properties of its top-level classes,
    labelled ``Class.method``."""
    defined = []
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((top.name, top.name, top))
        if isinstance(top, ast.ClassDef):
            defined += [
                (f"{top.name}.{item.name}", item.name, item)
                for item in top.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (item.name.startswith("__") and item.name.endswith("__"))
            ]
    return defined


def unreferenced_definitions(sources):
    """Definitions that no other code in ``sources`` reads.

    Checked are the :func:`top_definitions`.  A reference is an
    ``ast.Name`` or ``ast.Attribute`` with the defined name, outside the
    definition itself (so recursion does not count, and neither do
    docstrings or imports).
    """
    defined, refs = [], {}  # defined: (label, name, node); refs: name -> [reading nodes]
    for source in sources:
        tree = ast.parse(source)
        defined += top_definitions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append(node)
    unread = []
    for label, name, node in defined:
        inside = {id(n) for n in ast.walk(node)}
        if all(id(ref) in inside for ref in refs.get(name, ())):
            unread.append(label)
    return unread


def test_unreferenced_definition_detection():
    source = (
        "def used():\n    return 1\n\n"
        "def planted():\n    \"\"\"Calls used.\"\"\"\n    return used()\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "class Kept:\n"
        "    def __init__(self):\n        self.read()\n\n"
        "    def read(self):\n        return 2\n\n"
        "    @property\n    def shown(self):\n        return 3\n\n"
        "    def planted_method(self):\n        return self.planted_method()\n\n"
        "VALUE = Kept()\n"
    )
    other = "import m\n\"\"\"Mentions planted in a docstring only.\"\"\"\nm.used\nm.shown\n"
    assert unreferenced_definitions([source, other]) == [
        "planted", "recursive", "Kept.planted_method"
    ]


def test_no_src_code_that_only_the_tests_use():
    sources = [path.read_text(encoding="utf-8") for path in SRC]
    assert sorted(set(unreferenced_definitions(sources)) - ENTRY_POINTS) == []


def test_every_oracle_is_read_by_a_test_module():
    # an oracle that no test reads pins nothing
    tests = sorted((ROOT / "tests").glob("*.py"))
    oracles = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    defined = {label for label, _, _ in top_definitions(oracles)}
    sources = [path.read_text(encoding="utf-8") for path in tests]
    assert sorted(set(unreferenced_definitions(sources)) & defined) == []


# main(argv=None) lets tests drive the console script; the script itself
# calls it without arguments.
UNPASSED_DEFAULTS_ALLOWED = {"main.argv"}


def unpassed_defaults(sources):
    """Parameter defaults that no call in ``sources`` ever overrides.

    A default of ``f`` counts as passed when some call ``f(...)`` or
    ``obj.f(...)`` supplies that parameter by keyword or by position, or
    spreads ``*args`` (every positional) or ``**kwargs`` (every keyword).
    A leading ``self``/``cls`` is not counted as a position.  Reported as
    ``function.parameter``.
    """
    defs, calls = [], {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append(node)
            elif isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)

    def passes(call, name, position):
        if any(kw.arg in (name, None) for kw in call.keywords):
            return True
        if position is None:
            return False
        return len(call.args) > position or any(
            isinstance(arg, ast.Starred) for arg in call.args
        )

    unpassed = []
    for fn in defs:
        positional = fn.args.posonlyargs + fn.args.args
        skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
        first_default = len(positional) - len(fn.args.defaults)
        params = [(arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first_default]
        params += [
            (arg.arg, None)
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if default is not None
        ]
        for name, position in params:
            if not any(passes(call, name, position) for call in calls.get(fn.name, ())):
                unpassed.append(f"{fn.name}.{name}")
    return unpassed


def test_unpassed_default_detection():
    source = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n    return a\n\n"
        "def g(x=0):\n    return x\n\n"
        "def h(y=0):\n    return y\n\n"
        "class K:\n    def m(self, z=0):\n        return z\n\n"
        "f(0, 5)\nf(0, e=6)\ng(*[1])\nh(**{})\nK().m(1)\n"
        "def planted(flag=False):\n    return flag\n\nplanted()\n"
    )
    assert unpassed_defaults([source]) == ["f.c", "f.d", "planted.flag"]


def test_every_src_default_is_passed_by_src():
    sources = [path.read_text(encoding="utf-8") for path in SRC]
    assert sorted(set(unpassed_defaults(sources)) - UNPASSED_DEFAULTS_ALLOWED) == []


def unread_parameters(sources):
    """Parameters that no implementation of their function reads.

    Functions and methods with the same name count together (two drivers'
    methods of one name pass when one of them reads the parameter), and a
    leading ``self``/``cls`` is exempt.  A read is an ``ast.Name`` with the
    parameter's name anywhere in the body, nested functions included.
    Reported as ``function.parameter``.
    """
    params, reads = {}, {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            if names[:1] in (["self"], ["cls"]):
                names = names[1:]
            params.setdefault(node.name, set()).update(names)
            used = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            reads.setdefault(node.name, set()).update(used)
    return sorted(f"{fn}.{p}" for fn, names in params.items() for p in names - reads[fn])


def test_unread_parameter_detection():
    source = (
        "def f(a, b, *args, c=0, **kw):\n    return a + c\n\n"
        "class Tree:\n    def size(self, level):\n        return 1 << level\n\n"
        "    def lift(self, values, level):\n        return values\n\n"
        "class Paths:\n    def size(self, level):\n        return 7\n\n"
        "    def lift(self, values, level):\n        return values\n\n"
        "def outer(x):\n    def inner():\n        return x\n    return inner\n\n"
        "def planted(flag=False):\n    \"\"\"Mentions flag.\"\"\"\n    return 1\n"
    )
    assert unread_parameters([source]) == ["f.args", "f.b", "f.kw", "lift.level", "planted.flag"]


def test_every_src_parameter_is_read():
    sources = [path.read_text(encoding="utf-8") for path in SRC]
    assert unread_parameters(sources) == []


def unread_dataclass_fields(sources):
    """Fields of the dataclasses in ``sources`` that no code reads.

    A field is an annotated name in the body of a class decorated with
    ``dataclass`` (bare or called); a read is an ``ast.Attribute`` load
    with the field's name anywhere in ``sources`` (so constructor keywords,
    assignments and docstrings do not count).  Reported as ``Class.field``.
    """
    fields, reads = [], set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            if isinstance(node, ast.ClassDef) and any(
                getattr(getattr(dec, "func", dec), "id", None) == "dataclass"
                for dec in node.decorator_list
            ):
                fields += [
                    (node.name, item.target.id)
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
    return [f"{cls}.{name}" for cls, name in fields if name not in reads]


def test_unread_dataclass_field_detection():
    source = (
        "from dataclasses import dataclass, field\n\n"
        "@dataclass\nclass Space:\n"
        "    \"\"\"Holds planted, which nothing reads.\"\"\"\n\n"
        "    n: int\n    planted: float\n    _cache: list = field(repr=False)\n\n"
        "    def size(self):\n        return self.n + len(self._cache)\n\n"
        "@dataclass(frozen=True)\nclass Grid:\n    tau: float\n    stored: float = 0.0\n\n"
        "class Plain:\n    ignored: int\n\n"
        "def build():\n    space = Space(1, planted=2.0, _cache=[])\n    space.planted = 3.0\n"
        "    return space, Grid(tau=1.0, stored=2.0).tau\n"
    )
    assert unread_dataclass_fields([source]) == ["Space.planted", "Grid.stored"]


def test_every_src_dataclass_field_is_read_by_src():
    sources = [path.read_text(encoding="utf-8") for path in SRC]
    assert unread_dataclass_fields(sources) == []


def stale_names(names, sources):
    """Names of ``names`` that no longer label a definition in ``sources``.

    A label is one of the :func:`top_definitions` or a parameter of any
    function (``function.parameter``), the forms the two allow-lists
    above use.
    """
    labels = set()
    for source in sources:
        tree = ast.parse(source)
        labels.update(label for label, _, _ in top_definitions(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                labels.update(f"{node.name}.{arg.arg}" for arg in params)
    return sorted(set(names) - labels)


def test_stale_name_detection():
    source = (
        "def kept(x=0):\n    return x\n\n"
        "class Space:\n    def from_eigen(self, c):\n        return c\n"
    )
    names = {"kept", "kept.x", "Space.from_eigen", "gone", "kept.flag", "Space.to_eigen"}
    assert stale_names(names, [source]) == ["Space.to_eigen", "gone", "kept.flag"]


def test_allow_lists_name_only_existing_src_code():
    sources = [path.read_text(encoding="utf-8") for path in SRC]
    assert stale_names(ENTRY_POINTS | UNPASSED_DEFAULTS_ALLOWED, sources) == []


def attribute_reads(source, name):
    """Line numbers where ``source`` reads an attribute called ``name`` (``getattr`` escapes it)."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == name and isinstance(node.ctx, ast.Load)
    ]


def test_attribute_read_detection():
    source = (
        "kind = 'tree'\n"
        "def step(driver, x):\n"
        "    if driver.kind == 'tree':\n"
        "        return x\n"
        "    driver.kind = kind\n"
        "    return getattr(driver, 'kind')\n"
    )
    assert attribute_reads(source, "kind") == [3]


def test_forward_reads_no_driver_kind():
    # the drivers lay out a process (offset, split, slice_means), so the
    # forward module must not branch on trees against ensembles
    source = (ROOT / "src" / "slqheat" / "forward.py").read_text(encoding="utf-8")
    assert attribute_reads(source, "kind") == []


def loop_body_calls(source, func):
    """Callees, as source text, of the calls in the ``for`` bodies of the function ``func``."""
    fn = next(node for node in ast.parse(source).body if getattr(node, "name", None) == func)
    loops = [node for node in ast.walk(fn) if isinstance(node, ast.For)]
    return [
        ast.unparse(node.func)
        for loop in loops
        for stmt in loop.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call)
    ]


def test_loop_body_call_detection():
    source = (
        "def step(driver, steps):\n"
        "    for x, y in zip(steps, range(len(steps))):\n"
        "        x += np.multiply(y, 2.0, out=driver.siblings(x))\n"
        "        if len(x):\n"
        "            np.negative(x, out=x)\n"
    )
    want = ["np.multiply", "driver.siblings", "len", "np.negative"]
    assert loop_body_calls(source, "step") == want


def test_forward_step_calls_only_numpy():
    # the forward step's views are built once per storage: a driver method,
    # len or any other Python-level call back in the loop costs every step
    source = (ROOT / "src" / "slqheat" / "forward.py").read_text(encoding="utf-8")
    calls = loop_body_calls(source, "solve_forward")
    assert calls and [call for call in calls if not call.startswith("np.")] == []


def functions_with_parameter(source, name):
    """Names of the functions and methods of ``source`` that take a parameter called ``name``."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and name in [a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs]
    ]


def test_adjoint_takes_no_driver_argument():
    # a state carries its driver, so a second one could only disagree with it
    source = (ROOT / "src" / "slqheat" / "adjoint.py").read_text(encoding="utf-8")
    assert functions_with_parameter(source, "driver") == []
    planted = source.replace("def k_htau(data, state,", "def k_htau(data, driver, state,")
    planted += "\n\ndef planted(data, *, driver=None):\n    return data\n"
    assert functions_with_parameter(planted, "driver") == ["k_htau", "planted"]


def test_experiments_stacks_and_relays_no_arrays():
    # the Riccati record is time-major, as every sweep reads it, and
    # riccati._joint_errors pairs a fine and a coarse solution by indexing
    # the coarse columns, so the studies neither stack nor re-lay its arrays
    source = (ROOT / "src" / "slqheat" / "experiments.py").read_text(encoding="utf-8")
    names = ("vstack", "hstack", "ascontiguousarray")
    assert {name: attribute_reads(source, name) for name in names} == {name: [] for name in names}


def imported_names(source, module):
    """Names that ``source`` imports from ``module`` (relative or absolute)."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module
        for alias in node.names
    ]


def test_only_mesh_and_riccati_know_the_alias_pairing():
    # riccati._joint_errors derives the pairing of fine and coarse modes
    # from the two spaces, so the studies pass no pairing and read none of
    # the Riccati module's sweeps
    source = (ROOT / "src" / "slqheat" / "experiments.py").read_text(encoding="utf-8")
    assert [name for name in imported_names(source, "riccati") if name.startswith("_")] == []
    assert "alias_coefficients" not in imported_names(source, "mesh")
    planted = "from .riccati import (\n    MODE_BOUND,\n    _pair_moments,\n)\n"
    planted += "from slqheat.mesh import alias_coefficients, build_fem_space\n"
    assert imported_names(planted, "riccati") == ["MODE_BOUND", "_pair_moments"]
    assert imported_names(planted, "mesh") == ["alias_coefficients", "build_fem_space"]


def noise_comparisons(source):
    """Labels (``function`` or ``Class.method``; ``<module>`` at top level) of the
    comparisons in ``source`` with the noise name "linear" or "additive", in order."""
    found = []

    def visit(node, label):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{label}.{child.name}" if label else child.name)
                continue
            if isinstance(child, ast.Compare):
                nodes = [n for op in (child.left, *child.comparators) for n in ast.walk(op)]
                values = {n.value for n in nodes if isinstance(n, ast.Constant)}
                if values & {"linear", "additive"}:
                    found.append(label or "<module>")
            visit(child, label)

    visit(ast.parse(source), "")
    return found


def test_noise_comparison_detection():
    source = (
        "NOISE = 'linear'\n"
        "def f(data):\n    return 1.0 if data.noise == 'linear' else 0.0\n"
        "class C:\n    def g(self, cfg):\n"
        "        if cfg.noise not in ('linear', 'additive'):\n            raise ValueError\n"
        "        return cfg.noise == 'quadratic'\n"
        "assert 'additive' != NOISE\n"
    )
    assert noise_comparisons(source) == ["f", "C.g", "<module>"]


# where the noise name is read: the two input checks and ProblemData's eps
NOISE_DECISIONS = {
    ("forward.py", "make_problem"),
    ("forward.py", "ProblemData.__post_init__"),
    ("experiments.py", "resolve_config"),
}


def test_one_place_decides_the_noise():
    # every noise-dependent formula and the step multipliers read
    # ProblemData.eps (1 for linear noise, 0 for additive), so no solver
    # branches on, or refuses, a noise name
    found = {
        (path.name, label)
        for path in SRC
        for label in noise_comparisons(path.read_text(encoding="utf-8"))
    }
    assert found <= NOISE_DECISIONS, sorted(found - NOISE_DECISIONS)


# what run_study alone does: resolve the config, time the run, and write
RUN_STUDY_ONLY = {
    "resolve_config", "perf_counter", "makedirs", "_write_text_atomic", "_write_manifest"
}


def names_reached(source, func):
    """Names and attribute names that the top-level function or class ``func``
    of ``source`` reads, and so do the top-level definitions it names, in turn."""
    tops = {node.name: node for node in ast.parse(source).body if hasattr(node, "name")}
    names, seen, todo = set(), set(), [func]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(tops[name]):
            read = getattr(node, "id", None) or getattr(node, "attr", None)
            if read is not None:
                names.add(read)
            if read in tops:
                todo.append(read)
    return names


def runner_io(source):
    """{runner: sorted RUN_STUDY_ONLY names it reaches} over the ``RUNNERS`` dict of ``source``."""
    runners = next(
        node.value.values
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "RUNNERS"
    )
    reached = {run.id: sorted(names_reached(source, run.id) & RUN_STUDY_ONLY) for run in runners}
    return {run: names for run, names in reached.items() if names}


def test_runner_io_detection():
    source = (
        "import os, time\n"
        "class Table:\n    def save(self, path):\n        return _write_text_atomic(path, '')\n\n"
        "def _write_text_atomic(path, text):\n    os.makedirs(path)\n\n"
        "def _elapsed(since):\n    return time.perf_counter() - since\n\n"
        "def run_a(cfg):\n    return Table().save(cfg.out)\n\n"
        "def run_b(cfg):\n    return _elapsed(cfg.alpha)\n\n"
        "def run_c(cfg):\n    \"\"\"Calls resolve_config.\"\"\"\n    return run_c\n\n"
        "def run_study(cfg):\n    cfg = resolve_config(cfg)\n    return RUNNERS[cfg.study](cfg)\n\n"
        "RUNNERS = {'a': run_a, 'b': run_b, 'c': run_c}\n"
    )
    # a class is followed through its methods, a helper through its calls
    want = {"run_a": ["_write_text_atomic", "makedirs"], "run_b": ["perf_counter"]}
    assert runner_io(source) == want


def test_runners_do_no_io():
    # the runners compute and return their tables, and run_study alone resolves,
    # times and writes, so a non-finite table stops a run before anything is written
    source = (ROOT / "src" / "slqheat" / "experiments.py").read_text(encoding="utf-8")
    assert names_reached(source, "run_study") >= RUN_STUDY_ONLY
    assert runner_io(source) == {}


def test_package_imports_no_scipy():
    # the closed-form spectrum needs no SciPy, whose import dominated start-up,
    # and the closed-form Gauss rule no numpy.polynomial
    code = (
        "import sys, slqheat.experiments\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
        " or m.split('.')[:2] == ['numpy', 'polynomial']))"
    )
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
