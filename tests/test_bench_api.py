"""The benchmark under bench/ imports boxcalib's public API; every name it
imports must still exist, so that removing one fails here and not only
when the benchmark runs."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def boxcalib_imports() -> list[tuple[str, str, str | None]]:
    """(file, module, name) of every `from boxcalib... import name` in bench/,
    and (file, module, None) of every `import boxcalib...`."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "boxcalib":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "boxcalib"]
    return found


def _exists(module: str, name: str | None) -> bool:
    try:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")  # a submodule, such as boxcalib.io
    except ImportError:
        return False
    return True


def test_every_name_the_benchmark_imports_exists():
    imports = boxcalib_imports()
    assert any(file == "workloads.py" for file, _, _ in imports)
    missing = [f"{file}: {module}.{name}" for file, module, name in imports
               if not _exists(module, name)]
    assert not missing, f"bench/ imports names boxcalib no longer has: {missing}"
