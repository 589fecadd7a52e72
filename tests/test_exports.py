"""Every name that ``toricvol/__init__.py`` imports has a user outside its own
definition: package code, a ``python`` block of README.md, or a benchmark script
``bench/*.py``, which this test only reads. A name only the tests call belongs in
``tests/conftest.py``, not in the package's API. And one module owns the lattice points of
P_D: no other package module names the walk or the column cut. Only ``cli`` reads an
integer from text: no other package module imports ``re``, and ``cli`` imports no private
name from ``fan``. Every span of the bench, read from ``bench/spans.py`` without importing it, names
a function its package module defines, but for the two dead spans the bench has yet to re-point."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "toricvol"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def reads(tree: ast.AST) -> set[str]:
    """The names a tree reads, bare or as an attribute."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def defines(stmt: ast.stmt) -> set[str]:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def exports() -> list[str]:
    return [a.asname or a.name for stmt in parse(PACKAGE / "__init__.py").body
            if isinstance(stmt, ast.ImportFrom) for a in stmt.names]


def users() -> set[str]:
    out: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            for stmt in parse(path).body:
                out |= reads(stmt) - defines(stmt)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S):
        out |= reads(ast.parse(block))
    for path in (ROOT / "bench").glob("*.py"):
        tree = parse(path)  # a name the script defines itself, as oracle.py its own cross, is no user
        out |= reads(tree) - set().union(*map(defines, tree.body))
    return out


USERS = users()


@pytest.mark.parametrize("name", exports())
def test_every_export_has_a_user(name):
    assert name in USERS, f"{name} is exported, but no package code, README example or bench script uses it"


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "divisors"],
                         ids=lambda p: p.stem)
def test_only_divisors_names_the_section_walk(path):
    # every identifier the module reads, defines or imports: a Name's id, an attribute, a
    # def's, class's or import alias's name
    named = {getattr(n, field) for n in ast.walk(parse(path)) for field in ("id", "attr", "name")
             if isinstance(getattr(n, field, None), str)}
    owned = named & {"_section_polygon", "_hull_columns", "_cut_columns", "SECTION_SCAN_LIMIT"}
    assert not owned, f"{path.name} names {sorted(owned)}; only divisors may"


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "cli"],
                         ids=lambda p: p.stem)
def test_only_cli_imports_re(path):
    nodes = list(ast.walk(parse(path)))
    imported = {a.name for n in nodes if isinstance(n, ast.Import) for a in n.names}
    imported |= {n.module for n in nodes if isinstance(n, ast.ImportFrom)}
    assert "re" not in imported, f"{path.name} imports re; only cli reads integers from text"


def test_cli_imports_no_private_name_from_fan():
    private = [a.name for n in ast.walk(parse(PACKAGE / "cli.py"))
               if isinstance(n, ast.ImportFrom) and n.module == "fan" for a in n.names
               if a.name.startswith("_")]
    assert not private, f"cli imports {private} from fan"


# the spans whose functions the package no longer has (ROADMAP item 1a re-points them)
DEAD_SPANS = {("toricvol.divisors", "cartier_data"), ("toricvol.divisors", "section_lattice_points")}


def test_every_bench_span_names_a_package_function():
    # a renamed layer function would otherwise only zero its layer metric
    spans, = (stmt.value for stmt in parse(ROOT / "bench" / "spans.py").body
              if isinstance(stmt, ast.Assign) and defines(stmt) == {"SPANS"})
    unresolved = {(module, name) for module, name, _ in ast.literal_eval(spans)
                  if not any(isinstance(stmt, ast.FunctionDef) and stmt.name == name
                             for stmt in parse(PACKAGE / f"{module.removeprefix('toricvol.')}.py").body)}
    assert unresolved == DEAD_SPANS
