"""The Weyl-element representation is private to ``rootdata``.

The modules that compute with relative Weyl cosets read them through class
sizes, torus orders, the ``split`` flag, structure tags, labels and class
fusion.  These checks read their source with ``ast``, so a new import of a
matrix helper or a new read of a Weyl matrix fails here.
"""

import ast
from pathlib import Path

import pytest

import greenfn

PACKAGE = Path(greenfn.__file__).parent
CONSUMERS = ["characters", "green", "twovar", "gelfand"]
# the names these modules may import from rootdata
ALLOWED = {"LeviDatum", "RootDatumF", "TwistedCoset", "class_fusion"}
# the Weyl matrices a coset or a class holds: its elements, its twist and a
# class representative
MATRIX_FIELDS = {"elements", "twist", "rep"}


def _tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text(), filename=f"{module}.py")


def _rootdata_imports(tree):
    """Names imported from rootdata; a whole-module import counts as '*'."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "rootdata":
                names |= {alias.name for alias in node.names}
            elif any(alias.name == "rootdata" for alias in node.names):
                names.add("*")
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[-1] == "rootdata" for alias in node.names):
                names.add("*")
    return names


def _matrix_reads(tree):
    """(line, field) of each attribute read of a Weyl-matrix field."""
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in MATRIX_FIELDS
    )


@pytest.mark.parametrize("module", CONSUMERS)
def test_imports_from_rootdata(module):
    names = _rootdata_imports(_tree(module))
    assert names <= ALLOWED, f"{module} imports {sorted(names - ALLOWED)}"


@pytest.mark.parametrize("module", CONSUMERS)
def test_no_weyl_matrix_read(module):
    reads = _matrix_reads(_tree(module))
    assert reads == [], f"{module} reads Weyl matrices at {reads}"


def test_checks_see_the_forbidden_forms():
    # each form the checks must catch, in a module built for the purpose
    source = (
        "from .rootdata import TwistedCoset, torus_fixed_order\n"
        "from . import rootdata\n"
        "import greenfn.rootdata\n"
        "x = coset.twist, cls.rep, cls.size\n"
    )
    tree = ast.parse(source)
    assert _rootdata_imports(tree) == {"TwistedCoset", "torus_fixed_order", "*"}
    assert _matrix_reads(tree) == [(4, "rep"), (4, "twist")]
