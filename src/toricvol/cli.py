"""Command-line surface: check, report, hirzebruch, sweep, polytope.

Exit codes form a stable contract: 0 when everything agrees (or is ample,
for check), 1 for a mathematical failure (non-ample input, fan axiom
violation, disagreement between routes), 2 for unreadable or ill-formed
input and usage errors. A command returns only its verdict; every failure
it raises, a library `ValueError` included, is mapped to its exit code in
`main`. Rationals are always printed as exact p/q strings.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from itertools import chain
from typing import NamedTuple

from .divisors import (
    NotGloballyGenerated,
    TorusDivisor,
    divisor_polytope,
    generation_violations,
    ampleness_violations,
)
from .fan import Fan2D, FanValidationError, _decimal, hirzebruch_fan, standard_decomposition
from .lattice import Polygon, dot
from .valuation import TFlag, flag_valuation, trivialization_polytope
from .volume import ROUTES, FlagContribution, VolumeReport, okounkov_volume_report


class DocumentError(ValueError):
    """Ill-formed input: a document, argument or path a command cannot use (exit 2)."""


# The largest integers a report prints are the per-flag determinants. With
# every ray coordinate and coefficient below 10**k, a dual-basis entry is below
# 10**k, a local equation's entries below 2*10**(2k), a valuation component
# below 4*10**(3k) and a determinant below 32*10**(6k): at most 6k + 2 digits.
# Inputs of at most INPUT_DIGITS digits keep every printed integer within the
# interpreter's limit on int-to-str conversion (4300 digits unless lowered;
# 0 means no limit, and then the default bound is kept).
INPUT_DIGITS = ((sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits) - 2) // 6
_INPUT_BOUND = 10 ** INPUT_DIGITS


def _check_input_size(values) -> None:
    if any(abs(v) >= _INPUT_BOUND for v in values):
        raise DocumentError(f"integer too large: more than {INPUT_DIGITS} digits")


class InstanceDocument(NamedTuple):
    rays: tuple[tuple[int, int], ...]
    divisor: tuple[int, ...]
    flag: TFlag | None = None
    decomposition_variant: str | None = None


def _unique_fields(pairs: list) -> dict:
    """A JSON object's fields; a key repeated at any depth raises DocumentError, where
    ``json.loads`` alone would keep its last value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise DocumentError(f"repeated field {key!r}")
        out[key] = value
    return out


def parse_instance(text: str) -> InstanceDocument:
    try:
        raw = json.loads(text, object_pairs_hook=_unique_fields)
    except json.JSONDecodeError as e:
        raise DocumentError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise DocumentError("invalid JSON: nested too deeply") from None
    except DocumentError:  # a repeated field; a ValueError, but no integer literal's
        raise
    except ValueError:  # an integer literal past the int-to-str digit limit
        raise DocumentError(f"integer too large: more than {INPUT_DIGITS} digits") from None
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object")
    for key in raw:  # a misspelt optional field would otherwise be ignored
        if key not in ("rays", "divisor", "flag", "decomposition_variant"):
            raise DocumentError(f"unknown field {key!r}")
    for key in ("rays", "divisor"):
        if key not in raw:
            raise DocumentError(f"missing field {key!r}")
    # one set each of the ray types, the ray lengths and the coordinate types; an empty list passes
    rays = raw["rays"]
    if not (isinstance(rays, list) and set(map(type, rays)) <= {list} and set(map(len, rays)) <= {2}
            and set(map(type, chain.from_iterable(rays))) <= {int}):
        raise DocumentError("field 'rays' must be a list of integer pairs")
    coeffs = raw["divisor"]
    if not (isinstance(coeffs, list) and set(map(type, coeffs)) <= {int}):
        raise DocumentError("field 'divisor' must be a list of integers")
    _check_input_size(chain(coeffs, *rays))
    if len(coeffs) != len(rays):
        raise DocumentError(
            f"field 'divisor' has {len(coeffs)} entries for {len(rays)} rays")
    flag = raw.get("flag")
    if flag is not None:
        if not (isinstance(flag, dict) and set(flag) == {"ray", "cone"}
                and set(map(type, flag.values())) == {int}):
            raise DocumentError("field 'flag' must be an object {\"ray\": i, \"cone\": j}")
        flag = TFlag(flag["ray"], flag["cone"])
    variant = raw.get("decomposition_variant")
    if variant is not None and not isinstance(variant, str):
        raise DocumentError("field 'decomposition_variant' must be a string")
    return InstanceDocument(
        rays=tuple(map(tuple, rays)),
        divisor=tuple(coeffs),
        flag=flag,
        decomposition_variant=variant,
    )


def load_instance(path: str) -> InstanceDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise DocumentError(f"cannot read {path}: not UTF-8 text ({e.reason} at byte {e.start})") from None
    return parse_instance(text)


@contextlib.contextmanager
def _output(path: str | None, **kwargs):
    """The text file at path, or stdout when path is None.

    A failure to open, write or close the file raises DocumentError.
    """
    if path is None:
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8", **kwargs) as fh:
            yield fh
    except OSError as e:
        raise DocumentError(f"cannot write {path}: {e.strerror}") from None


def instance_json(doc: InstanceDocument) -> str:
    out: dict = {"rays": [list(r) for r in doc.rays], "divisor": list(doc.divisor)}
    if doc.flag is not None:
        out["flag"] = {"ray": doc.flag.ray, "cone": doc.flag.cone}
    if doc.decomposition_variant is not None:
        out["decomposition_variant"] = doc.decomposition_variant
    return json.dumps(out, separators=(",", ":"))


def half(x: int) -> str:
    """x/2 as str(Fraction(x, 2)) writes it, made from the int."""
    return str(x // 2) if x % 2 == 0 else f"{x}/2"


# The text report's route lines, in ROUTES order. Route 2's twice-volume,
# at index _DSQ, is D.D itself, which the JSON, text and CSV reports print.
_TEXT_LINES = (
    "area(P_D)              = {}",
    "D.D / 2                = {}   (D.D = {dsq})",
    "simplex sum            = {}",
    "symbol sum / 2         = {}",
    "trivialization area    = {}   (flag ray {flag.ray}, cone {flag.cone})",
)
_DSQ = 1


# ---------------------------------------------------------------- commands


def _decomposition(args, fan: Fan2D, fallback: str | None = None):
    """fan's orbit decomposition named by --decomposition, else by fallback, else "default"."""
    # an empty variant is malformed, not absent: only None falls back
    variant = fallback if args.decomposition is None else args.decomposition
    return standard_decomposition(fan, "default" if variant is None else variant)


def _instance(args, flag_text: str | None = None):
    """(D, flag, dec) from the document at args.path, the command line winning
    over it; an invalid fan raises FanValidationError."""
    doc = load_instance(args.path)
    flag = _parse_flag(flag_text) if flag_text is not None else doc.flag
    fan = Fan2D(doc.rays)
    dec = _decomposition(args, fan, doc.decomposition_variant)
    if flag is not None:
        flag_valuation(fan, flag)  # a pair that is no flag of fan raises
    return TorusDivisor(fan, doc.divisor), flag, dec


def cmd_check(args) -> int:
    D = _instance(args)[0]
    rays, d = D.fan.rays, D.coeffs
    gen = generation_violations(D)
    amp = ampleness_violations(D)
    # the local equations are read only for a witness line
    print("\n".join([
        f"fan: valid ({len(rays)} rays)",
        f"globally generated: {'true' if not gen else 'false'}",
        *(f"  cone {j}: <{D.cocycle[j]}, ray {i}> = {dot(D.cocycle[j], rays[i])} < {-d[i]}"
          for j, i in gen),
        f"ample: {'true' if not amp else 'false'}",
        *(f"  cone {j} vs ray {i}: slack {dot(D.cocycle[j], rays[i]) + d[i]} (need > 0)"
          for j, i in amp)]))
    return 0 if not amp else 1


def _parse_flag(text: str) -> TFlag:
    try:
        i, j = map(_decimal, text.split(","))
    except ValueError:
        raise DocumentError(f"flag must be 'ray,cone', got {text!r}") from None
    return TFlag(i, j)


def _flag_json(ray, cone, a0, a1, a2, u0, u1, v0, v1, x0, x1, d0, d1, d2, twice) -> str:
    """One per-flag block, laid out as json.dumps(..., indent=2) lays it out, from 15 strings.

    Term k omits the k-th chart and vector; the matrix columns are the two
    vectors kept. Every flag point is a rational point, so each residue
    degree is 1.
    """
    return (f'    {{\n      "flag": [\n        {ray},\n        {cone}\n      ],\n'
            f'      "subtotal": "{twice}",\n      "terms": [\n'
            f'        {{\n          "omitted": 0,\n'
            f'          "sections": [\n            {a1},\n            {a2}\n          ],\n'
            f'          "matrix": [\n            [\n              {v0},\n              {x0}\n            ],\n'
            f'            [\n              {v1},\n              {x1}\n            ]\n          ],\n'
            f'          "signed_volume": "{d0}",\n          "residue_degree": 1\n        }},\n'
            f'        {{\n          "omitted": 1,\n'
            f'          "sections": [\n            {a0},\n            {a2}\n          ],\n'
            f'          "matrix": [\n            [\n              {u0},\n              {x0}\n            ],\n'
            f'            [\n              {u1},\n              {x1}\n            ]\n          ],\n'
            f'          "signed_volume": "{d1}",\n          "residue_degree": 1\n        }},\n'
            f'        {{\n          "omitted": 2,\n'
            f'          "sections": [\n            {a0},\n            {a1}\n          ],\n'
            f'          "matrix": [\n            [\n              {u0},\n              {v0}\n            ],\n'
            f'            [\n              {u1},\n              {v1}\n            ]\n          ],\n'
            f'          "signed_volume": "{d2}",\n          "residue_degree": 1\n        }}\n'
            f'      ]\n    }}')


def _report_json(report: VolumeReport) -> str:
    """The report as json.dumps(..., indent=2) lays it out, byte for byte.

    An ample report, where every leaf is a bool, an int or a p/q string, is
    written from one template, with the per-flag blocks from _flag_json and
    each index from one table of strings. Diagnostics, free text that may need escaping,
    go through json.dumps: a non-ample report whole, an ample one's one by one.
    """
    if not report.ample:
        return json.dumps({"ample": False, "agree": False, "diagnostics": list(report.diagnostics)},
                          indent=2)
    values = ",\n".join(f'    "{k}": "{half(x)}"' for k, x in zip(ROUTES, report.twice))
    idx = list(map(str, range(len(report.per_flag))))
    cf = ",\n".join(f"    [\n      {idx[r]},\n      {idx[c]}\n    ]" for r, c in report.contributing_flags)
    cf = f"[\n{cf}\n  ]" if cf else "[]"
    flags = ",\n".join(
        _flag_json(idx[r], idx[c], idx[a0], idx[a1], idx[a2], str(u0), str(u1), str(v0), str(v1),
                   str(x0), str(x1), half(d0), half(d1), half(d2), half(t))
        for (r, c), (a0, a1, a2), ((u0, u1), (v0, v1), (x0, x1)), (d0, d1, d2), t in report.per_flag)
    diags = ",\n".join(f"    {json.dumps(d)}" for d in report.diagnostics)
    diags = diags and f'  "diagnostics": [\n{diags}\n  ],\n'
    return (f'{{\n  "ample": true,\n  "agree": {"true" if report.agree else "false"},\n'
            f'{diags}  "values": {{\n{values}\n  }},\n  "self_intersection": {report.twice[_DSQ]},\n'
            f'  "display_flag": {{\n    "ray": {report.display_flag.ray},\n'
            f'    "cone": {report.display_flag.cone}\n  }},\n'
            f'  "contributing_flags": {cf},\n  "per_flag": [\n{flags}\n  ]\n}}')


def _flag_text(c: FlagContribution) -> str:
    """One flag's lines of the text report: its subtotal, then term k with the
    k-th chart and vector omitted, as in _flag_json."""
    (ray, cone), (a0, a1, a2), ((u0, u1), (v0, v1), (x0, x1)), (d0, d1, d2), twice = c
    return (f"flag (ray {ray}, cone {cone}): subtotal {half(twice)}\n"
            f"    omit 0: sections ({a1}, {a2}) matrix (({v0}, {x0}), ({v1}, {x1})) volume {half(d0)}\n"
            f"    omit 1: sections ({a0}, {a2}) matrix (({u0}, {x0}), ({u1}, {x1})) volume {half(d1)}\n"
            f"    omit 2: sections ({a0}, {a1}) matrix (({u0}, {v0}), ({u1}, {v1})) volume {half(d2)}")


def _report_text(report: VolumeReport) -> str:
    if not report.ample:
        return "\n".join(["ample: false", *(f"  {d}" for d in report.diagnostics)])
    cf = ", ".join(f"(ray {g.ray}, cone {g.cone})" for g in report.contributing_flags)
    return "\n".join([
        *(line.format(half(x), dsq=report.twice[_DSQ], flag=report.display_flag)
          for line, x in zip(_TEXT_LINES, report.twice, strict=True)),
        f"contributing flags     : {cf or 'none'}",
        *map(_flag_text, report.per_flag),
        *report.diagnostics,
        f"agree: {'true' if report.agree else 'false'}"])


def _csv_routes(report: VolumeReport) -> list[str]:
    """A CSV row's route cells in ROUTES order: each volume, except D.D itself
    in the dsq column; all `-` for non-ample input, which has no route values."""
    return [str(x) if k == _DSQ else half(x) for k, x in enumerate(report.twice)] or ["-"] * len(ROUTES)


def _report_csv(report: VolumeReport) -> str:
    row = ",".join([*_csv_routes(report), "true" if report.agree else "false"])
    return f"area,dsq,simplex_sum,symbol_sum,triv_area,agree\n{row}"


# every report format, the --format choices in this order, text the default
_WRITERS = {"text": _report_text, "json": _report_json, "csv": _report_csv}


def cmd_report(args) -> int:
    D, flag, dec = _instance(args, args.flag)
    report = okounkov_volume_report(D, dec, flag or TFlag(0, 0))
    print(_WRITERS[args.format](report))
    return 0 if report.agree else 1


def _int_option(text: str) -> int:
    """An integer option's value, written -?[0-9]+ as ``fan._decimal`` reads it."""
    try:
        return _decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def cmd_hirzebruch(args) -> int:
    _check_input_size([args.l, args.a, args.b])
    fan = hirzebruch_fan(args.l)
    _decomposition(args, fan)  # read before --emit opens: a bad variant writes no document
    doc = InstanceDocument(rays=fan.rays, divisor=(0, args.a, args.b, 0))
    with _output(args.emit) as fh:
        print(instance_json(doc), file=fh)
    return 0


def _parse_range(text: str) -> range:
    # "K" is "K..K"; a second ".." is left in hi, which _decimal rejects
    lo, dots, hi = text.partition("..")
    try:
        lo, hi = _decimal(lo), _decimal(hi if dots else lo)
    except ValueError:
        raise DocumentError(f"range must be 'K' or 'K1..K2', got {text!r}") from None
    if hi < lo:
        raise DocumentError(f"empty range {text!r}")
    return range(lo, hi + 1)


def cmd_sweep(args) -> int:
    ls = _parse_range(args.l)
    As = _parse_range(args.a)
    extras = _parse_range(args.b_extra)
    # b = l*a + extra is bilinear, so its extremes over the grid are at the corners
    _check_input_size([ls[-1], As[0], As[-1], *(l * a + e for l in (ls[0], ls[-1])
                                                  for a in (As[0], As[-1])
                                                  for e in (extras[0], extras[-1]))])
    # every F_l has four rays, so one decomposition serves the whole sweep
    dec = _decomposition(args, hirzebruch_fan(ls.start))
    # rows go out as they are computed; the file is line buffered so each
    # finished row is on disk before the next report starts
    with _output(args.csv, buffering=1) as fh:
        print("l,a,b,area,dsq,simplex_sum,symbol_sum,agree", file=fh)
        all_agree = True
        for l in ls:
            fan = hirzebruch_fan(l)
            for a in As:
                for extra in extras:
                    b = l * a + extra
                    report = okounkov_volume_report(TorusDivisor(fan, (0, a, b, 0)), dec)
                    all_agree = all_agree and report.agree
                    print(",".join([str(l), str(a), str(b), *_csv_routes(report)[:4],
                                    "true" if report.agree else "false"]), file=fh)
    return 0 if all_agree else 1


# ------------------------------------------------------------- polytope svg

_SCALE = 40


def _svg_polygon(poly: Polygon, style: str) -> str:
    pts = [(x * _SCALE, -y * _SCALE) for x, y in poly.vertices]
    if len(pts) == 1:
        (x, y), = pts
        return f'<circle cx="{x}" cy="{y}" r="5" {style}/>'
    if len(pts) == 2:
        (x0, y0), (x1, y1) = pts
        return f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" stroke-width="3" {style}/>'
    attr = " ".join(f"{x},{y}" for x, y in pts)
    return f'<polygon points="{attr}" {style}/>'


def polytope_svg(D: TorusDivisor, flag: TFlag | None = None) -> str:
    """SVG drawing of the divisor polytope of a nef D, optionally with a flag's image.

    All its polytope vertices are lattice points, so coordinates are integers times a fixed
    pixel scale: nothing is rounded. Any other D raises ``NotGloballyGenerated``.
    """
    if bad := generation_violations(D):
        raise NotGloballyGenerated(*bad[0])
    polys = [(divisor_polytope(D), 'fill="#c8dcff" stroke="#1f4e9c" fill-opacity="0.7"')]
    caption = f"area = {polys[0][0].area}"
    if flag is not None:
        flag = flag if type(flag) is TFlag else TFlag(*flag)
        tp = trivialization_polytope(D, flag)
        polys.append((tp, 'fill="#ffd9b0" stroke="#b35900" fill-opacity="0.5"'))
        caption += (f"; flag (ray {flag.ray}, cone {flag.cone}) image area = {tp.area}"
                    f" ({'equal' if tp.area == polys[0][0].area else 'UNEQUAL'})")
    xs = [x for poly, _ in polys for x, _ in poly.vertices]
    ys = [y for poly, _ in polys for _, y in poly.vertices]
    x0, x1 = (min(xs) - 1) * _SCALE, (max(xs) + 1) * _SCALE
    y0, y1 = -(max(ys) + 1) * _SCALE, -(min(ys) - 1) * _SCALE
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{x0} {y0} {x1 - x0} {(y1 - y0) + _SCALE}">',
        f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" fill="white"/>',
    ]
    for poly, style in polys:
        parts.append(_svg_polygon(poly, style))
        for x, y in poly.vertices:
            parts.append(f'<circle cx="{x * _SCALE}" cy="{-y * _SCALE}" r="3" fill="black"/>')
    parts.append(f'<text x="{x0 + 5}" y="{y1 + _SCALE - 10}" font-size="16">{caption}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def cmd_polytope(args) -> int:
    D, flag, _ = _instance(args, args.flag)
    svg = polytope_svg(D, flag)  # drawn before the file opens, so a failure writes none
    with _output(args.svg) as fh:
        print(svg, file=fh)
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricvol",
        description="Exact volume certification for ample divisors on smooth complete toric surfaces.")
    parser.add_argument(
        "--decomposition", default=None, metavar="VARIANT",
        help="orbit decomposition: default | successor | generic-at=K")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a fan+divisor document, test positivity")
    p.add_argument("path")

    p = sub.add_parser("report", help="compute the four volume routes and verify agreement")
    p.add_argument("path")
    p.add_argument("--format", choices=tuple(_WRITERS), default="text")
    p.add_argument("--flag", default=None, metavar="RAY,CONE",
                   help="display flag for the trivialization polytope")

    p = sub.add_parser("hirzebruch", help="emit an instance document for the ruled-surface family")
    for name in ("--l", "--a", "--b"):
        p.add_argument(name, type=_int_option, required=True)
    p.add_argument("--emit", default=None, metavar="PATH")

    p = sub.add_parser("sweep", help="verify agreement over a parameter grid, emit CSV")
    for name, what in (("--l", "l"), ("--a", "a"), ("--b-extra", "b = l*a + extra for each extra")):
        p.add_argument(name, required=True, metavar="K or K1..K2",
                       help=f"{what} in the range; a negative one needs the = form, {name}=-1..2")
    p.add_argument("--csv", default=None, metavar="PATH")

    p = sub.add_parser("polytope", help="render the divisor polytope as SVG")
    p.add_argument("path")
    p.add_argument("--svg", required=True, metavar="PATH")
    p.add_argument("--flag", default=None, metavar="RAY,CONE")

    return parser


# One parser serves every main() call in the process: building it costs far
# more than a report on a small fan, and parse_args keeps no state in it. It
# is built at import, so it never goes through a rebound build_parser.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        # looked up at call time, so a rebound cmd_* (a span, a test spy) runs
        return globals()[f"cmd_{args.command}"](args)
    except FanValidationError as e:
        print("\n".join(["fan: invalid", *(f"  {v}" for v in e.violations)]))
        return 1
    except NotGloballyGenerated as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:  # below its two subclasses: a DocumentError or a library check
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except OSError as e:
        # stdout takes no more output: its reader has gone (a broken pipe,
        # which needs no message) or its device is full. Send what is still
        # buffered to devnull, so the flush at interpreter exit cannot fail again
        if not isinstance(e, BrokenPipeError):
            print(f"error: cannot write stdout: {e.strerror}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    entry()
