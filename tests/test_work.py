"""Deterministic work counts: a complexity gate that host noise cannot move.

The Python line events each package module runs while one report is computed
(``okounkov_volume_report``) and written (``cli._report_json``) are counted on a
freshly built deep fan at n = 64, 256 and 1024 rays. The counts are the same on
every run, so each module's growth per 4x step in n is gated at ``LIMIT``, the
ratios and not the counts: a linear module grows about 4x, a quadratic one
about 16x. C-level work (bignum products, ``sorted``, ``str.join``) is invisible
to it. The ratios were checked on CPython 3.11.
"""

import math
import random
import sys
from collections import Counter
from importlib.util import find_spec
from pathlib import Path

from toricvol import Fan2D, TorusDivisor, cli, okounkov_volume_report, valuation, volume
from conftest import deep_ample_instance

SIZES = (64, 256, 1024)
LIMIT = 4.4  # growth of a module's line count per 4x step in n

PACKAGE = {str(p): p.stem for p in Path(find_spec("toricvol").origin).parent.glob("*.py")}


def line_counts(n: int) -> Counter:
    """Line events per package module for one report and its JSON, on fresh records, so no
    cached value of the generator's divisor is read. A tracer already installed, such as the
    opt-in statement-coverage plugin's, still sees every line, and is back in place after."""
    D = deep_ample_instance(random.Random(1009 + n), n)
    D = TorusDivisor(Fan2D(D.fan.rays), D.coeffs)
    counts = Counter()
    outer = sys.gettrace()

    def global_trace(frame, event, arg):
        chained = outer(frame, event, arg) if outer is not None else None
        module = PACKAGE.get(frame.f_code.co_filename)
        if module is None:
            return chained

        def local_trace(frame, event, arg):
            nonlocal chained
            if event == "line":
                counts[module] += 1
            if chained is not None:
                chained = chained(frame, event, arg)
            return local_trace
        return local_trace(frame, event, arg)

    sys.settrace(global_trace)
    try:
        cli._report_json(okounkov_volume_report(D))
    finally:
        sys.settrace(outer)
    return counts


def growth():
    """(n, {module: count at n / count at n/4}) for each 4x step of ``SIZES``, one step at a
    time; a module that ran no line at n/4 grows infinitely."""
    before = line_counts(SIZES[0])
    for n in SIZES[1:]:
        after = line_counts(n)
        yield n, {m: after[m] / before[m] if before[m] else math.inf for m in after}
        before = after


def test_every_module_is_linear():
    for n, ratios in growth():
        assert max(ratios.values()) <= LIMIT, (n, ratios)


# flag_valuation as a scan of the chart table, compiled under valuation's file name so that
# its lines count as that module's, as a mutation of the source would
QUADRATIC_FLAG_VALUATION = '''
def flag_valuation(fan, flag):
    for f, w in fan.charts.items():
        if f == flag:
            return w
    raise ValueError(f"not a flag: {flag}")
'''


def test_gate_trips_on_a_quadratic_flag_valuation(monkeypatch):
    scope = {}
    exec(compile(QUADRATIC_FLAG_VALUATION, valuation.__file__, "exec"), scope)
    for module in (valuation, volume):  # route 3 reads it through volume's own import
        monkeypatch.setattr(module, "flag_valuation", scope["flag_valuation"])
    # stops at the first step that trips, before the slow n = 1024 report
    assert any(ratios["valuation"] > LIMIT for _, ratios in growth())
