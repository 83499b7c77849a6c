"""Layering guard: the units engine sits below the field layer.

Imports are read from the source with `ast`, so nothing is imported and no
module runs.  `units` builds on the group engine alone, `exactnum` on the units
engine, and `search`, which classifies candidates on the units engine, needs
nothing above it.  No module reaches into another's private, `_`-prefixed
names, and only `exactnum` reads the stored form of a cyclotomic value.
`galois` decides integrality exactly, so it reaches neither the Jacobi
kernels nor the float spectrum.  The CLI builds every group in
`_construct_group`, which sizes it first.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cayspec"

ALLOWED = {
    "exactnum": {"errors", "units"},
    "units": {"errors", "groups"},
    "search": {"errors", "groups", "units"},
}


def imports(nodes):
    """(module, names) for each cayspec import among the nodes; `import
    cayspec.x` gives no names."""
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cayspec"):
            yield node.module, [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("cayspec"):
                    yield alias.name, []


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=path.name)


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_module_level_imports_stay_below_the_field_layer(name):
    tree = parse(PACKAGE / f"{name}.py")
    imported = {module.removeprefix("cayspec.") for module, _ in imports(tree.body)}
    assert imported <= ALLOWED[name], imported - ALLOWED[name]


def test_no_module_imports_private_names_from_another():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for module, names in imports(ast.walk(parse(path))):
            private += [f"{path.name}: {module}.{n}" for n in names if n.startswith("_")]
    assert private == []


def test_only_exactnum_reads_the_stored_terms():
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "exactnum.py":
            readers += [
                f"{path.name}:{node.lineno}"
                for node in ast.walk(parse(path))
                if isinstance(node, ast.Attribute) and node.attr == "terms"
            ]
    assert readers == []


def test_galois_reaches_no_numeric_oracle():
    tree = parse(PACKAGE / "galois.py")
    reached = [
        f"{module}: {names}"
        for module, names in imports(ast.walk(tree))
        if module == "cayspec._kernels" or {"_kernels", "spectrum_numeric"} & set(names)
    ]
    reached += [
        f"galois.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "spectrum_numeric"
    ]
    assert reached == []


CONSTRUCTORS = {"make_cyclic", "make_dihedral", "make_product", "make_from_generators"}


def test_cli_builds_groups_in_one_routine():
    tree = parse(PACKAGE / "cli.py")

    def uses(nodes):
        return [
            node
            for node in nodes
            if (isinstance(node, ast.Name) and node.id in CONSTRUCTORS)
            or (isinstance(node, ast.Attribute) and node.attr in CONSTRUCTORS)
        ]

    (routine,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_construct_group"
    ]
    inside = {id(node) for node in uses(ast.walk(routine))}
    assert {node.id for node in uses(ast.walk(routine))} == CONSTRUCTORS
    stray = [f"cli.py:{node.lineno}" for node in uses(ast.walk(tree)) if id(node) not in inside]
    assert stray == []
