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


def _uses(path: Path, module: str) -> set[str]:
    """Names of ``remtrack.<module>`` that ``path`` uses, as ``<alias>.name``
    or as a bare name imported from (or defined in) that module. A function's
    uses of its own name inside its own ``def`` do not count."""
    tree = ast.parse(path.read_text())
    relative = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1]
    module_aliases = {
        a.asname or a.name for node in relative if node.module is None for a in node.names if a.name == module
    }
    imported = {a.asname or a.name: a.name for node in relative if node.module == module for a in node.names}
    own_module = path.stem == module
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


# The one public function without a caller in the package: benchmarks/layers.py
# wraps it where the tracker and the scoring look it up (tracker.iou,
# metrics.iou), and it moves to the test oracles once those wrappers go.
UNUSED_PUBLIC = [("geometry", "iou")]


def test_every_public_autodiff_function_is_used():
    """Every public function of ``autodiff``, ``rem`` and ``geometry`` is
    used by a module of the package, so that no second, uncalled form of a
    running function (a per-node REM, a one-vector GRU, a scalar box
    function) lives beside it."""
    package = Path(remtrack.__file__).parent
    unused = []
    for module in ("autodiff", "rem", "geometry"):
        tree = ast.parse((package / f"{module}.py").read_text())
        public = {
            node.name for node in tree.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        }
        used = set().union(*(_uses(path, module) for path in package.glob("*.py")))
        unused += [(module, name) for name in sorted(public - used)]
    assert unused == UNUSED_PUBLIC
