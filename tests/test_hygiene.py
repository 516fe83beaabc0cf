"""Static hygiene: no module imports a name it never uses, and importing
the package stays cheap."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    p
    for d in ("src/hintcvx", "tests", "scripts")
    for p in (ROOT / d).glob("*.py")
    if p.name != "__init__.py"  # the package's re-exports
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    # only a read counts: a store of the same name (a dataclass field
    # annotation, say) does not use the import
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_import_loads_no_heavy_scipy_module():
    # scipy.optimize costs 0.24-0.32 s and 16 MB to import, scipy.fft
    # 0.09 s and 3.7 MB; the package needs neither
    probe = "import sys, hintcvx; print(sorted({'scipy.fft', 'scipy.optimize'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert out.stdout.strip() == "[]"


def imported_modules(source: str) -> set[str]:
    tree = ast.parse(source)
    mods = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    mods |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}
    return mods


def test_one_module_holds_the_linear_algebra():
    # every solve, with the form or the H^2 Gram matrix, is built by the
    # operator's backend in grid.py
    sources = {p.name: p.read_text() for p in (ROOT / "src/hintcvx").glob("*.py")}
    users = sorted(name for name, src in sources.items() if "scipy.sparse.linalg" in imported_modules(src))
    assert users == ["grid.py"]
    assert not any(m.startswith("scipy.sparse") for m in imported_modules(sources["functionals.py"]))
