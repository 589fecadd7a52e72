"""The statement table of the opt-in coverage plugin ``stmt_coverage``."""

from stmt_coverage import ALLOWED, _own_lines, function_statements

SOURCE = '''\
def f(x):
    """Not a statement."""
    def g():
        return 1
    if x:
        y = (x +
             1)
    else:
        y = 0
    try:
        pass
    except ValueError:
        raise
    return y


class C:
    """Nor is this."""
    def m(self):
        return 2
'''


def test_function_statements_skip_docstrings_and_nested_defs():
    table = function_statements(SOURCE)
    got = {name: [(type(s).__name__, s.lineno) for s in stmts] for name, stmts in table.items()}
    assert got == {
        "f": [("If", 5), ("Assign", 6), ("Assign", 9), ("Try", 10), ("Pass", 11),
              ("Raise", 13), ("Return", 14)],
        "f.g": [("Return", 4)],
        "C.m": [("Return", 20)],
    }


def test_own_lines_are_a_simple_statement_or_a_compound_header():
    stmts = function_statements(SOURCE)["f"]
    assert [list(_own_lines(s)) for s in stmts[:4]] == [[5], [6, 7], [9], [10]]


def test_allowlist_is_only_the_console_entry():
    assert ALLOWED == {"cli.entry"}
