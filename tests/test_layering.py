"""Layering guard: the group engine, the units engine and the field layer
sit below the rest.

Imports are read from the source with `ast`, so nothing is imported and no
module runs.  The group engine imports no other module, `units` builds on the
group engine alone, `exactnum` on the error types alone, `colour` on the group
engine and exact rationals, and `search`, which classifies candidates on the
units engine, needs nothing above it.  No module reaches into another's
private, `_`-prefixed names, only `exactnum` reads the stored form of a
cyclotomic value, only `exactnum._fold` reads the residues of the powers of z,
and only `units` reads the bundle pullbacks or forms the cosets of a fixing
subgroup.  The galois checks take the fixing subgroup they test from their
caller, only `galois` builds exact spectra, and in `search` each read label
names one call.
`galois` decides integrality exactly, so it reaches neither the Jacobi
kernels nor the float spectrum.  The CLI builds every group in
`_construct_group`, which sizes it first and caps the generator closure.
Every function the package defines is named somewhere else in it, apart
from a short list that tests keep.
Records are `NamedTuple`s: only a short list of classes writes its own
equality, hashing, immutability or pickling.  The package has two exception
types, both in `errors`; every other refusal is a ValueError.
"""

import ast
import builtins
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cayspec"

ALLOWED = {
    "colour": {"exactnum", "groups"},
    "exactnum": {"errors"},
    "groups": set(),
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


def test_only_units_reads_pullbacks_and_checks_coset_forms():
    # Every other module obtains a fixing subgroup, already checked, from
    # units.read_fixing_subgroup, and tests values in coset form only through
    # units.coset_split.
    guarded = {"pullbacks", "_check_coset_form", "coset_form"}
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "units.py":
            readers += [
                f"{path.name}:{node.lineno}"
                for node in ast.walk(parse(path))
                if (isinstance(node, ast.Attribute) and node.attr in guarded)
                or (isinstance(node, ast.Name) and node.id in guarded)
            ]
    assert readers == []
    units_names = {node.name for node in parse(PACKAGE / "units.py").body if hasattr(node, "name")}
    assert {"_check_coset_form", "coset_form", "coset_split"} <= units_names


def test_only_fold_reads_the_power_residues():
    # One fold reduces every value built from powers of z, so a new basis for
    # the field changes `_fold` and the readers that print a value, not its
    # arithmetic.
    readers = [
        f"{path.stem}.{function.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for function in ast.walk(parse(path))
        if isinstance(function, ast.FunctionDef) and function.name != "_power_residues"
        for node in ast.walk(function)
        if "_power_residues" in (getattr(node, "id", None), getattr(node, "attr", None))
    ]
    assert readers == ["exactnum._fold"]


def test_galois_checks_take_the_fixing_subgroup_from_their_caller():
    # The caller has read H already; a second read would check it twice.
    tree = parse(PACKAGE / "galois.py")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("checked_spectrum", "integrality_verdict"):
        named = {ref for ref, _, _ in references(functions[name])}
        assert not named & {"fixing_subgroup", "read_fixing_subgroup"}, name


def test_only_galois_builds_exact_spectra():
    # Every exact spectrum a command prints comes from galois.checked_spectrum,
    # which checks the stabilizer identity on it.
    guarded = {"spectrum_exact", "character_table", "has_character_table"}
    namers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        named = {ref for ref, _, _ in references(tree)}
        named.update(name for _, names in imports(ast.walk(tree)) for name in names)
        if named & guarded:
            namers.add(path.name)
    assert namers - {"spectra.py"} == {"galois.py"}


def test_search_reads_each_vector_at_one_call():
    # A failed check names the vector by the label of its call, so a label
    # shared by two calls would name the wrong vector at one of them.
    labels = [
        node.args[3].value
        for node in ast.walk(parse(PACKAGE / "search.py"))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "read_fixing_subgroup"
    ]
    vectors = ("multiplicity vector", "shadow vector", "word-length vector")
    assert sorted(labels) == [f"set {{}}, {vector}" for vector in vectors]


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


def construct_group(tree):
    (routine,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_construct_group"
    ]
    return routine


def test_cli_builds_groups_in_one_routine():
    tree = parse(PACKAGE / "cli.py")

    def uses(nodes):
        return [
            node
            for node in nodes
            if (isinstance(node, ast.Name) and node.id in CONSTRUCTORS)
            or (isinstance(node, ast.Attribute) and node.attr in CONSTRUCTORS)
        ]

    routine = construct_group(tree)
    inside = {id(node) for node in uses(ast.walk(routine))}
    assert {node.id for node in uses(ast.walk(routine))} == CONSTRUCTORS
    stray = [f"cli.py:{node.lineno}" for node in uses(ast.walk(tree)) if id(node) not in inside]
    assert stray == []


def test_cli_caps_the_generator_closure():
    # Without a cap the closure runs to CLOSURE_CAP before any command's
    # bound is compared, so the one call passes one.
    calls = [
        node
        for node in ast.walk(construct_group(parse(PACKAGE / "cli.py")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "make_from_generators"
    ]
    assert [len(call.args) + len(call.keywords) for call in calls] == [2]


# Functions and public methods that no line of the package names, each kept
# for the tests: a name listed here with no reason to stay should be deleted.
UNCALLED = {
    # The fixing subgroup of a multiplicity colour, so just fixing_subgroup;
    # kept under its own name because perfbench/trace_request.py traces it,
    # and must keep resolving every name it wraps (tests/test_trace_names.py).
    "galois.multiset_fixing_subgroup",
    # Counted by name in perfbench/trace_request.py (`groups.table_cells`),
    # although no family builds a multiplication table.
    "groups._table_from_rule",
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


VALUE_DUNDERS = {"__eq__", "__hash__", "__setattr__", "__reduce__"}

# Classes that write equality, hashing, immutability or pickling by hand; a
# plain record is a NamedTuple, which gives all four with no code.
HAND_WRITTEN_VALUES = {
    # Equality reads the canonical form, and a rational value hashes as its
    # Fraction.
    "exactnum.Cyclotomic",
}


def test_records_do_not_write_value_methods():
    hand_written = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if not isinstance(node, ast.ClassDef):
                continue
            written = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
            written |= {
                target.id
                for item in node.body
                if isinstance(item, ast.Assign)
                for target in item.targets
                if isinstance(target, ast.Name)
            }
            if written & VALUE_DUNDERS:
                hand_written.add(f"{path.stem}.{node.name}")
    assert hand_written == HAND_WRITTEN_VALUES


EXCEPTION_TYPES = {"InternalInconsistency", "ParseError"}
BUILTIN_EXCEPTIONS = {
    name
    for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}


def test_errors_defines_the_only_two_exception_types():
    # A class is an exception type when a base, by name or as an attribute,
    # is a builtin exception or one of the package's own.
    defined = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.ClassDef):
                bases = {getattr(base, "id", getattr(base, "attr", None)) for base in node.bases}
                if bases & (BUILTIN_EXCEPTIONS | EXCEPTION_TYPES):
                    defined.add(f"{path.stem}.{node.name}")
    assert defined == {f"errors.{name}" for name in EXCEPTION_TYPES}
    tree = parse(PACKAGE / "errors.py")
    assert {node.name for node in tree.body if isinstance(node, ast.ClassDef)} == EXCEPTION_TYPES
