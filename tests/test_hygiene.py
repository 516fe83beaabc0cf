"""Static hygiene: no module imports a name it never uses, no definition
in the package goes unread, importing the package stays cheap, and the
README names every solver key and command-line option."""

import argparse
import ast
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hintcvx.cli import build_parser
from hintcvx.solvers import SolverConfig

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


def defined_names(source: str) -> list[str]:
    """Top-level functions, classes and upper-case constants, and the
    methods of those classes other than dunders."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [
                item.name
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__"))
            ]
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
    return names


def read_names(source: str) -> set[str]:
    """Every name read, bare or as an attribute."""
    reads = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
    return reads


def exported_names(source: str) -> set[str]:
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def dead_names(package: dict[str, str], readers: list[str]) -> list[str]:
    """Definitions in the package's modules that no package module and no
    reader reads and ``__all__`` does not list."""
    read = set().union(*map(read_names, [*package.values(), *readers]))
    read |= set().union(*map(exported_names, package.values()))
    return [f"{module}: {name}" for module, src in package.items() for name in defined_names(src) if name not in read]


def package_and_readers() -> tuple[dict[str, str], list[str]]:
    # reads in tests do not count: a name only a test calls is dead code
    package = {p.name: p.read_text() for p in sorted((ROOT / "src/hintcvx").glob("*.py"))}
    readers = [p.read_text() for d in ("scripts", "bench") for p in sorted((ROOT / d).glob("*.py"))]
    return package, readers


def test_no_dead_names():
    assert dead_names(*package_and_readers()) == []


def test_dead_name_scan_finds_orphans():
    package, readers = package_and_readers()
    package["principle.py"] += (
        "\n\nORPHAN_TOL = 1e-3\n\n\ndef _orphaned_helper(x):\n    return x\n\n\n"
        "class Orphan:\n    def __init__(self):\n        self.x = ORPHAN_TOL\n\n    def unread(self):\n        return 0\n"
    )
    assert dead_names(package, readers) == [
        "principle.py: _orphaned_helper",
        "principle.py: Orphan",
        "principle.py: unread",
    ]


def test_import_loads_no_heavy_scipy_module():
    # scipy.optimize costs 0.24-0.32 s and 16 MB to import, scipy.fft
    # 0.09 s and 3.7 MB, scipy.sparse.linalg about 10 ms after scipy.sparse;
    # the package needs none of them
    heavy = "{'scipy.fft', 'scipy.optimize', 'scipy.sparse.linalg'}"
    probe = f"import sys, hintcvx; print(sorted({heavy} & set(sys.modules)))"
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
    # operator's backend in grid.py, from LAPACK's tridiagonal routines on
    # radial grids and the sine basis on the square: no sparse factor
    sources = {p.name: p.read_text() for p in (ROOT / "src/hintcvx").glob("*.py")}
    imports = {name: imported_modules(src) for name, src in sources.items()}
    assert not [name for name, mods in imports.items() if "scipy.sparse.linalg" in mods]
    assert sorted(name for name, mods in imports.items() if "scipy.linalg" in mods) == ["grid.py"]
    assert not any(m.startswith("scipy.sparse") for m in imported_modules(sources["functionals.py"]))


def test_readme_lists_the_solver_keys():
    # the config schema takes exactly the SolverConfig fields, so a knob
    # added or removed there must be added or removed in the README too
    readme = (ROOT / "README.md").read_text()
    sentence = readme.split("Solver keys mirror `SolverConfig`:", 1)[1].split(".", 1)[0]
    assert re.findall(r"`(\w+)`", sentence) == [f.name for f in dataclasses.fields(SolverConfig)]


def test_readme_synopsis_lists_the_cli_options():
    # each synopsis line names a subcommand and exactly the options its
    # parser takes, in the parser's order, so a flag added or removed there
    # must be added or removed in the README too
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    synopsis = {line.split()[1]: re.findall(r"(--\w+)", line) for line in block.splitlines()}
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: [opt for a in sub._actions for opt in a.option_strings if opt not in ("-h", "--help")]
        for name, sub in subparsers.choices.items()
    }
    assert synopsis == options
