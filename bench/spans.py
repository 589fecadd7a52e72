"""Spans around the library's layer functions, recorded from outside the library.

`Tracer.install` replaces each traced function at every module binding that
holds it (for example both `toricvol.divisors.ampleness_violations` and
`toricvol.volume.ampleness_violations`), so nested calls get parent spans.
Spans stay in memory; `summarize` turns them into call counts, total time
and self time (duration minus the time covered by child spans).
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

import oracle

# (defining module, function, span name). A function a later version of the
# package no longer has is skipped, so its span simply reads zero calls.
SPANS = [
    ("toricvol.cli", "build_parser", "cli.argparse"),
    ("toricvol.cli", "load_instance", "cli.parse"),
    ("toricvol.cli", "cmd_report", "cli.report"),
    ("toricvol.fan", "fan_violations", "fan.validate"),
    ("toricvol.divisors", "cartier_data", "divisors.cartier"),
    ("toricvol.divisors", "ampleness_violations", "divisors.ample_gate"),
    ("toricvol.divisors", "generation_violations", "divisors.gen_gate"),
    ("toricvol.divisors", "divisor_polytope", "divisors.area_route"),
    ("toricvol.divisors", "section_lattice_points", "divisors.sections"),
    ("toricvol.lattice", "convex_hull_2d", "lattice.hull"),
    ("toricvol.valuation", "trivialization_polytope", "valuation.triv"),
    ("toricvol.valuation", "semigroup_level_hull", "valuation.level_hull"),
    ("toricvol.milnor_k", "intersection_number_via_symbols", "milnor_k.symbol"),
    ("toricvol.volume", "flag_contribution", "volume.simplex"),
    ("toricvol.volume", "self_intersection_classical", "volume.dsq"),
    ("toricvol.volume", "okounkov_volume_report", "volume.report"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self._bindings: list[tuple[object, str, object, object]] | None = None

    def open(self, name: str) -> int:
        self.spans.append([name, self.stack[-1] if self.stack else -1, perf_counter(), None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        self.stack.pop()

    def take(self) -> list[list]:
        """Hand over the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    # ------------------------------------------------------------ wrapping

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def _build_parser(self, fn):
        # parse_args runs right after build_parser; both count as argparse
        wrapped = self._span("cli.argparse", fn)

        def wrapper(*args, **kwargs):
            parser = wrapped(*args, **kwargs)
            parser.parse_args = self._span("cli.argparse", parser.parse_args)
            return parser
        return wrapper

    def _cmd_report(self, fn):
        # Rendering is everything cmd_report does after the report returns,
        # whatever the format, so it is recorded as a span over that interval.
        def wrapper(*args, **kwargs):
            idx = self.open("cli.report")
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                rec = self.spans[idx]
                report = next((s for s in self.spans[idx + 1:]
                               if s[0] == "volume.report" and s[1] == idx), None)
                if report is not None:
                    self.spans.append(["cli.render", idx, report[3], rec[3]])
        return wrapper

    def _hull(self, fn):
        span = self._span("lattice.hull", fn)

        def wrapper(points):
            pts = list(points)
            poly = span(pts)
            self.counters["hull_points_in"] += len(pts)
            self.counters["hull_vertices_out"] += len(poly.vertices)
            return poly
        return wrapper

    def _sections(self, fn):
        span = self._span("divisors.sections", fn)

        def wrapper(D, m=1):
            pts = span(D, m)
            self.counters["section_points"] += len(pts)
            self.counters["section_candidates"] += oracle.box_candidates(
                D.fan.rays, D.coeffs, m)
            return pts
        return wrapper

    def _find_bindings(self) -> list[tuple[object, str, object, object]]:
        special = {"cli.argparse": self._build_parser, "cli.report": self._cmd_report,
                   "lattice.hull": self._hull, "divisors.sections": self._sections}
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "toricvol" or name.startswith("toricvol."))]
        out = []
        for home, attr, name in SPANS:
            fn = getattr(sys.modules.get(home), attr, None)
            if fn is None:
                continue
            wrapped = special.get(name, lambda f, n=name: self._span(n, f))(fn)
            out += [(mod, attr, fn, wrapped) for mod in modules if getattr(mod, attr, None) is fn]
        return out

    def install(self) -> None:
        """Replace every traced function at every module binding that holds it."""
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for mod, attr, _, wrapped in self._bindings:
            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, fn, _ in self._bindings or ():
            setattr(mod, attr, fn)


def summarize(spans: list[list]) -> dict[str, list[float]]:
    """Per span name: [calls, total s, self s, outermost s].

    The outermost time counts only spans with no ancestor of the same name,
    so it is the layer's inclusive time without double counting.
    """
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list[float]] = {}
    for i, (name, parent, start, end) in enumerate(spans):
        dur = end - start
        rec = out.setdefault(name, [0, 0.0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            rec[3] += dur
    return out
