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


def test_only_textprep_parses_or_writes_csv_and_jsonl():
    """How a line of a JSONL or CSV file is decoded, parsed and named in an
    error is decided in ``textprep`` alone: no other module builds a csv
    reader or writer or parses JSON, except ``resolve_config``, which parses
    a whole config file at once."""
    banned = {("csv", name) for name in ("reader", "writer", "DictReader", "DictWriter")}
    banned |= {("json", "load"), ("json", "loads")}
    found = []
    for source in sorted(Path(trendlens.__file__).parent.glob("*.py")):
        if source.name == "textprep.py":
            continue
        for top in ast.parse(source.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and node.module in ("csv", "json"):
                    names = {(node.module, alias.name) for alias in node.names}
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Name)):
                    names = {(node.func.value.id, node.func.attr)}
                else:
                    continue
                exempt = getattr(top, "name", None) == "resolve_config" and names == {("json", "loads")}
                if names & banned and not exempt:
                    found.append(f"{source.name}:{node.lineno}: {', '.join('.'.join(n) for n in names & banned)}")
    assert not found, found


def test_no_module_calls_lapack():
    """PCA is fitted without LAPACK, whose results change with the BLAS
    thread count and whose first call raises a run's peak memory: no module
    uses an ``np.linalg`` function other than ``norm``."""
    found = []
    for source in sorted(Path(trendlens.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
                names = {node.attr} if node.value.attr == "linalg" else set()
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                names = {alias.name for alias in node.names if alias.name.endswith("linalg")}
            else:
                continue
            found += [f"{source.name}:{node.lineno}: {name}" for name in sorted(names - {"norm"})]
    assert not found, found


def test_no_module_reads_the_environment():
    """A run's outputs depend only on argv, the config file and the input
    files: no module reads ``os.environ``, ``os.environb``, ``os.getenv`` or
    ``os.getenvb``, as an attribute or as a name imported from ``os``."""
    banned = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for source in sorted(Path(trendlens.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = {node.attr} & banned
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names} & banned
            else:
                continue
            found += [f"{source.name}:{node.lineno}: {name}" for name in sorted(names)]
    assert not found, found


def test_only_embedding_reads_or_writes_labelled_rows():
    """``embedding`` owns the labelled-vector row format of ``.w2v`` models
    and docvec files: no other module names its row reader or writer, its
    header reader or either file's magic."""
    owned = {"_read_rows", "_write_rows", "_read_header", "_MAGIC", "_DOCVEC_MAGIC"}
    found = []
    for source in sorted(Path(trendlens.__file__).parent.glob("*.py")):
        if source.name == "embedding.py":
            continue
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.Name):
                names = {node.id}
            else:
                continue
            found += [f"{source.name}:{node.lineno}: {name}" for name in sorted(names & owned)]
    assert not found, found


def test_only_textprep_opens_a_file_for_writing():
    """Every output is written through ``textprep._replacing``, which replaces
    a file only when its write succeeds: outside ``textprep`` a module calls
    the builtin ``open`` only with a literal read mode (no ``w``, ``a``, ``x``
    or ``+``), and no ``open`` method (``Path.open``, ``os.open``, ``io.open``),
    ``write_text`` or ``write_bytes``; ``cli`` calls ``open`` not at all."""
    found = []
    for source in sorted(Path(trendlens.__file__).parent.glob("*.py")):
        if source.name == "textprep.py":
            continue
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and node.func.attr in ("open", "write_text", "write_bytes"):
                found.append(f"{source.name}:{node.lineno}: {node.func.attr}")
            elif isinstance(node.func, ast.Name) and node.func.id == "open":
                mode = ([k.value for k in node.keywords if k.arg == "mode"] + node.args[1:2] + [ast.Constant("r")])[0]
                literal = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                if not literal or set("wax+") & set(mode.value) or source.name == "cli.py":
                    found.append(f"{source.name}:{node.lineno}: open")
    assert not found, found
