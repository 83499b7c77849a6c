"""Layering guard: the units engine sits below the field layer.

Imports are read from the source with `ast`, so nothing is imported and no
module runs.  `units` builds on the group engine alone, and `search`, which
classifies candidates on the units engine, needs nothing above it.  No
module reaches into another's private, `_`-prefixed names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cayspec"

ALLOWED = {
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
