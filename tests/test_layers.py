"""The package's modules form a stack: each imports only the layers below
it, and only at module level. The package re-exports every library name."""

import ast
import importlib
from pathlib import Path

import bsig

LAYERS = ("stepfn", "buffer", "litcmp", "waveio", "cli")
ENTRY_POINTS = ("__init__", "__main__")
PACKAGE = Path(bsig.__file__).parent


def _modules():
    return {p.stem: ast.parse(p.read_text()) for p in PACKAGE.glob("*.py")}


def _sibling_imports(tree):
    """(node, module) for each `from .module` or `from bsig.module` import."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not node.module:
            continue
        if node.level == 1:
            yield node, node.module.split(".")[0]
        elif node.module.startswith("bsig."):
            yield node, node.module.split(".")[1]


def test_every_module_has_a_layer():
    assert set(_modules()) == set(LAYERS) | set(ENTRY_POINTS)


def test_imports_point_down_the_stack():
    for name, tree in _modules().items():
        if name not in LAYERS:
            continue
        below = set(LAYERS[: LAYERS.index(name)])
        for node, target in _sibling_imports(tree):
            assert target in below, f"{name} imports {target} (line {node.lineno})"


def test_imports_at_module_level():
    for name, tree in _modules().items():
        top_level = {id(node) for node in tree.body}
        for node, target in _sibling_imports(tree):
            assert id(node) in top_level, (
                f"{name} imports {target} inside a function (line {node.lineno})"
            )


def test_exports_resolve_and_are_re_exported():
    exported = set(bsig.__all__)
    assert len(exported) == len(bsig.__all__), "duplicate name in bsig.__all__"
    for name in bsig.__all__:
        assert hasattr(bsig, name), f"bsig.__all__ names missing {name!r}"
    for layer in LAYERS[:-1]:  # cli is the front end, not part of the library API
        module = importlib.import_module(f"bsig.{layer}")
        names = getattr(module, "__all__", [])
        assert len(set(names)) == len(names), f"duplicate name in bsig.{layer}.__all__"
        for name in names:
            assert hasattr(module, name), f"bsig.{layer}.__all__ names missing {name!r}"
            assert name in exported, f"bsig does not re-export {layer}.{name}"
