"""Statement coverage of the package's function bodies: a stdlib-only pytest plugin.

Opt-in, as tracing makes the suite several times slower. From the repository root::

    python -m pytest -q -p tests.stmt_coverage

A ``sys.settrace`` tracer, installed before collection, records each line run in the
package's source files. At the end of the session every function-body statement that
never ran is listed, and the run fails unless its function is in ``ALLOWED``. A
function's docstring and its nested ``def``s are not its statements; a nested
function's body is counted as a function of its own. A simple statement ran if any of
its lines ran, a compound one (``if``, ``for``, ``try``, ``with``, ...) if a line of
its header did.
"""

from __future__ import annotations

import ast
import sys
import threading
from importlib.util import find_spec
from pathlib import Path

# functions that only a console-script subprocess runs
ALLOWED = {"cli.entry"}

_NOT_STATEMENTS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _own_lines(stmt: ast.stmt) -> range:
    """The lines whose run counts for ``stmt``: all of a simple statement, the header of a
    compound one, up to its first child statement."""
    children = [c for f in ("body", "handlers", "orelse", "finalbody", "cases")
                for c in getattr(stmt, f, ())]
    end = min((c.lineno for c in children), default=stmt.end_lineno + 1)
    return range(stmt.lineno, max(end, stmt.lineno + 1))


def function_statements(source: str) -> dict[str, list[ast.stmt]]:
    """Each function's body statements, nested blocks included, by qualified name."""
    out: dict[str, list[ast.stmt]] = {}

    def body_of(stmts: list, into: list, prefix: str) -> None:
        for s in stmts:
            if isinstance(s, _NOT_STATEMENTS):
                visit(s, prefix)
                continue
            into.append(s)
            for f in ("body", "orelse", "finalbody"):
                body_of(getattr(s, f, []), into, prefix)
            for h in getattr(s, "handlers", []) + getattr(s, "cases", []):
                body_of(h.body, into, prefix)

    def visit(node: ast.AST, prefix: str) -> None:
        name = f"{prefix}{node.name}"
        if isinstance(node, ast.ClassDef):
            for s in node.body:
                if isinstance(s, _NOT_STATEMENTS):
                    visit(s, f"{name}.")
            return
        body = node.body
        if ast.get_docstring(node, clean=False) is not None:
            body = body[1:]
        body_of(body, out.setdefault(name, []), f"{name}.")

    for node in ast.parse(source).body:
        if isinstance(node, _NOT_STATEMENTS):
            visit(node, "")
    return out


class StatementCoverage:
    """The tracer and the report, registered as a plugin by ``pytest_configure``."""

    def __init__(self, package: Path):
        self.files = {str(p): p for p in sorted(package.glob("*.py"))}
        self.hits: set[tuple[str, int]] = set()
        self.total, self.missed = 0, []

    def _global(self, frame, event, arg):
        return self._local if frame.f_code.co_filename in self.files else None

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def start(self) -> None:
        threading.settrace(self._global)
        sys.settrace(self._global)

    def finish(self) -> None:
        """Stop tracing and tally the statements that never ran."""
        sys.settrace(None)
        threading.settrace(None)
        for name, path in self.files.items():
            for func, stmts in function_statements(path.read_text()).items():
                if f"{path.stem}.{func}" in ALLOWED:
                    continue
                self.total += len(stmts)
                self.missed += [f"{path.name}:{s.lineno} in {func}" for s in stmts
                                if not any((name, line) in self.hits for line in _own_lines(s))]

    def pytest_sessionfinish(self, session):
        self.finish()
        if self.missed and session.exitstatus == 0:
            session.exitstatus = 1

    def pytest_terminal_summary(self, terminalreporter):
        terminalreporter.write_sep("-", "function-body statement coverage")
        terminalreporter.write_line(f"{self.total - len(self.missed)} of {self.total} statements "
                                    f"ran (not counted: {', '.join(sorted(ALLOWED))})")
        for line in self.missed:
            terminalreporter.write_line(f"never ran: {line}")


def pytest_configure(config):
    coverage = StatementCoverage(Path(find_spec("toricvol").origin).parent)
    config.pluginmanager.register(coverage, "stmt_coverage_tracer")
    coverage.start()
