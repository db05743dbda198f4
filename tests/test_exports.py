import ast
import importlib
import pkgutil
from pathlib import Path

import trendlens


def test_export_lists_resolve_and_cover_the_package_namespace():
    """Every name in a module's ``__all__`` exists on it, so ``import *``
    works, and every name ``trendlens/__init__.py`` imports is exported by
    its module."""
    modules = {
        info.name: importlib.import_module(f"trendlens.{info.name}")
        for info in pkgutil.iter_modules(trendlens.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    }
    for name, module in modules.items():
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"trendlens.{name}.__all__ names missing attributes: {missing}"
    tree = ast.parse(Path(trendlens.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        exported = modules[node.module].__all__
        unexported = [alias.name for alias in node.names if alias.name not in exported]
        assert not unexported, f"trendlens imports {unexported} not in trendlens.{node.module}.__all__"
