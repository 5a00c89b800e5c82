import ast
from pathlib import Path

import remtrack


def test_all_is_sorted_unique_and_resolves():
    names = remtrack.__all__
    assert list(names) == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(remtrack, name)] == []
    namespace: dict = {}
    exec("from remtrack import *", namespace)
    assert set(names) <= set(namespace)


def _autodiff_uses(path: Path) -> set[str]:
    """Names of ``remtrack.autodiff`` that ``path`` uses, as ``ad.name`` or as
    a bare name imported from (or defined in) that module. A function's uses
    of its own name inside its own ``def`` do not count."""
    tree = ast.parse(path.read_text())
    relative = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1]
    module_aliases = {
        a.asname or a.name for node in relative if node.module is None for a in node.names if a.name == "autodiff"
    }
    imported = {a.asname or a.name: a.name for node in relative if node.module == "autodiff" for a in node.names}
    own_module = path.name == "autodiff.py"
    uses: set[str] = set()
    for top in tree.body:
        found = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in module_aliases:
                    found.add(node.attr)
            elif isinstance(node, ast.Name) and (own_module or node.id in imported):
                found.add(imported.get(node.id, node.id))
        if own_module and isinstance(top, ast.FunctionDef):
            found.discard(top.name)
        uses |= found
    return uses


def test_every_public_autodiff_function_is_used():
    package = Path(remtrack.__file__).parent
    tree = ast.parse((package / "autodiff.py").read_text())
    public = {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    used = set().union(*(_autodiff_uses(path) for path in package.glob("*.py")))
    assert sorted(public - used) == []
