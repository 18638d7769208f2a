"""Every module of the package uses each name it imports, and states no
invariant with `assert`, which `python -O` strips."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kopt"

# dpengine binds gain_partial only so that perfbench/layers.py can trace it
# there, and perfbench's test_every_attribute_restored_when_an_operation_raises
# requires every traced attribute to exist.
ALLOWED = {("dpengine", "gain_partial")}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """The names the module reads, and the strings listed in its __all__."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return used


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = used_names(tree)
        unused += [
            f"{path.stem}:{line}: {name}"
            for name, line in imported_names(tree).items()
            if name not in used and (path.stem, name) not in ALLOWED
        ]
    assert unused == []


def test_decomp_takes_only_invariant_error_from_moves():
    """decomp works on slot graphs: a caller passes an interference class's
    edges (moves.interference_graph), so decomp needs no pattern type."""
    tree = ast.parse((SRC / "decomp.py").read_text())
    from_moves = [alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "moves"
                  for alias in node.names]
    assert from_moves == ["InvariantError"]


def test_the_gate_sees_an_unused_import_and_honours_all():
    tree = ast.parse(
        "import os\nfrom math import pi, tau\n__all__ = ['tau']\nprint(os.sep)\n"
    )
    used = used_names(tree)
    assert [name for name in imported_names(tree) if name not in used] == ["pi"]


def assert_lines(tree: ast.Module) -> list[int]:
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_module_asserts():
    """An invariant that guards the answer raises InvariantError instead."""
    found = [
        f"{path.stem}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in assert_lines(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_the_gate_sees_an_assert():
    tree = ast.parse("def f(x):\n    if x:\n        assert x > 0, 'x'\n    return x\n")
    assert assert_lines(tree) == [3]
