"""The benchmark under bench/, the scripts under tools/ and the walkthroughs
under demos/ import boxcalib's API; every name they import must still
exist, so that removing or renaming one fails here and not only when the
benchmark runs, two checkouts' digests are compared or a demo that no
test runs is run. Inside the package, only __init__ imports the corner
path (registration): calibration does not depend on it."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("bench", "tools", "demos")


def boxcalib_imports() -> list[tuple[str, str, str | None]]:
    """(file, module, name) of every `from boxcalib... import name` in the
    SCANNED directories, and (file, module, None) of every `import
    boxcalib...`; file is relative to the repository root."""
    found = []
    for path in sorted(p for d in SCANNED for p in (ROOT / d).glob("*.py")):
        file = path.relative_to(ROOT).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "boxcalib":
                found += [(file, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(file, alias.name, None) for alias in node.names
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
    files = {file for file, _, _ in imports}
    assert {"bench/workloads.py", "tools/calibration_digest.py", "demos/noise_sweep_demo.py"} <= files
    missing = [f"{file}: {module}.{name}" for file, module, name in imports
               if not _exists(module, name)]
    assert not missing, f"these imports name what boxcalib no longer has: {missing}"


def test_no_module_but_init_imports_the_corner_path():
    importers = []
    for path in sorted((ROOT / "src" / "boxcalib").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                # `from .registration import x`, `from . import registration` and their absolute forms
                module = ".".join(["boxcalib"] * bool(node.level) + [node.module] * bool(node.module))
                names = [module, *(f"{module}.{alias.name}" for alias in node.names)]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if "boxcalib.registration" in names:
                importers.append(path.name)
    assert importers == ["__init__.py"], f"these modules import registration: {importers}"
