"""Layering guard: the units engine sits below the field layer.

Imports are read from the source with `ast`, so nothing is imported and no
module runs.  `units` builds on the group engine alone, `exactnum` on the units
engine, and `search`, which classifies candidates on the units engine, needs
nothing above it.  No module reaches into another's private, `_`-prefixed
names, and only `exactnum` reads the stored form of a cyclotomic value.
`galois` decides integrality exactly, so it reaches neither the Jacobi
kernels nor the float spectrum.  The CLI builds every group in
`_construct_group`, which sizes it first.  Every function the package defines
is named somewhere else in it, apart from a short list that tests keep.
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


# Functions and public methods that no line of the package names, each kept
# for the tests: a name listed here with no reason to stay should be deleted.
UNCALLED = {
    # Independent references the tests compare the engine against: a colour
    # pulled back along a power map, and the stabilizer of one value found by
    # scanning every unit.
    "colour.power_pullback",
    "exactnum.stabilizer",
    # Traced by perfbench/trace_request.py, which must keep resolving every
    # name it wraps (tests/test_trace_names.py).
    "galois.multiset_fixing_subgroup",
    # Counted by name in perfbench/trace_request.py (`groups.table_cells`),
    # although no family builds a multiplication table.
    "groups._table_from_rule",
    # The tests' constructor of connection sets and their reference helpers.
    "colour.ConnectionMultiset.from_elements",
    "colour.ConnectionMultiset.shadow",
    "colour.ConnectionMultiset.valency",
}


def definitions(tree):
    """(qualified name, node, is a method) for each top-level function and
    each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item, True


def references(node, inside=frozenset()):
    """(name, is an attribute, ids of the enclosing functions) for each name
    and attribute read or written under node."""
    if isinstance(node, ast.FunctionDef):
        inside = inside | {id(node)}
    if isinstance(node, ast.Name):
        yield node.id, False, inside
    elif isinstance(node, ast.Attribute):
        yield node.attr, True, inside
    for child in ast.iter_child_nodes(node):
        yield from references(child, inside)


def test_every_function_is_called_in_the_package():
    # A function counts as called when some line outside its own body names
    # it: as a name or an attribute, or only as an attribute for a method.
    # The re-exports of __init__.py call nothing.
    trees = {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    named = [ref for stem, tree in trees.items() if stem != "__init__" for ref in references(tree)]
    uncalled = {
        f"{stem}.{qualified}"
        for stem, tree in trees.items()
        for qualified, node, method in definitions(tree)
        if not any(
            name == node.name and (attribute or not method) and id(node) not in inside
            for name, attribute, inside in named
        )
    }
    assert uncalled == UNCALLED
