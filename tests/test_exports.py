"""Every name the package exports is read by the library itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "asymcouple"

# exports that no code in src/ reads, each with the reason it stays
NO_READER_IN_SRC = {
    "integrate": "criterion 9: a given noise path replayed",
    "integrate_coupled": "criterion 9: a given noise path replayed",
    "sample_noise": "criterion 9: a given noise path replayed",
    "shift_noise": "criterion 9: a given noise path replayed",
}


def _loaded_names(tree: ast.Module) -> set[str]:
    """Names the module loads: bare, or as ``alias.name`` on a sibling
    module imported by ``from . import X [as alias]``."""
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            names.add(node.attr)
    return names


def test_every_export_has_a_reader_in_src():
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    read = set().union(*(
        _loaded_names(ast.parse(path.read_text()))
        for path in SRC.glob("*.py")
        if path.name != "__init__.py"
    ))
    assert exported - read == set(NO_READER_IN_SRC)
