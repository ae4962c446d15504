"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "slqheat").glob("*.py"))
MODULES = SRC + sorted((ROOT / "tests").glob("*.py"))

# Documented entry points, exempt from the unreferenced-code check because
# their callers live outside src/: the harness (make_config, run_study),
# the console script (cli.main), the adjoints L*, Lhat* of the README and
# the one-step operator a0_apply, which the benchmark traces as a layer.
ENTRY_POINTS = {
    "make_config", "run_study", "main", "apply_L_adjoint", "apply_Lhat_adjoint", "a0_apply",
}


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


def unreferenced_definitions(sources):
    """Top-level functions and classes that no other code in ``sources`` reads.

    A reference is an ``ast.Name`` or ``ast.Attribute`` with the defined
    name, outside the definition itself (so recursion does not count, and
    neither do docstrings or imports).
    """
    defined, refs = [], []  # refs: (name, enclosing top-level definition or None)
    for source in sources:
        for top in ast.parse(source).body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((top.name, top))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    refs.append((node.id, top))
                elif isinstance(node, ast.Attribute):
                    refs.append((node.attr, top))
    return [name for name, top in defined if not any(r == name and at is not top for r, at in refs)]


def test_unreferenced_definition_detection():
    source = (
        "def used():\n    return 1\n\n"
        "def planted():\n    \"\"\"Calls used.\"\"\"\n    return used()\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "class Kept:\n    pass\n\n"
        "VALUE = Kept()\n"
    )
    other = "import m\n\"\"\"Mentions planted in a docstring only.\"\"\"\nm.used\n"
    assert unreferenced_definitions([source, other]) == ["planted", "recursive"]


def test_no_src_code_that_only_the_tests_use():
    sources = [path.read_text(encoding="utf-8") for path in SRC]
    assert sorted(set(unreferenced_definitions(sources)) - ENTRY_POINTS) == []
