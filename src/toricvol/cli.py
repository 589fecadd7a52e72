"""Command-line surface: check, report, hirzebruch, sweep, polytope.

Exit codes form a stable contract: 0 when everything agrees (or is ample,
for check), 1 for a mathematical failure (non-ample input, fan axiom
violation, disagreement between routes), 2 for unreadable or ill-formed
input and usage errors. Rationals are always printed as exact p/q strings.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .divisors import (
    NotGloballyGenerated,
    TorusDivisor,
    divisor,
    divisor_polytope,
    generation_violations,
    ampleness_violations,
)
from .fan import FanValidationError, hirzebruch_fan, standard_decomposition, validate_fan
from .lattice import Polygon, dot
from .valuation import TFlag, check_flag, trivialization_polytope
from .volume import FlagContribution, VolumeReport, okounkov_volume_report


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


@dataclass(frozen=True)
class InstanceDocument:
    rays: tuple[tuple[int, int], ...]
    divisor: tuple[int, ...]
    flag: TFlag | None = None
    decomposition_variant: str | None = None


def parse_instance(text: str) -> InstanceDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise DocumentError("invalid JSON: nested too deeply") from None
    except ValueError:  # an integer literal past the int-to-str digit limit
        raise DocumentError(f"integer too large: more than {INPUT_DIGITS} digits") from None
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object")
    for key in ("rays", "divisor"):
        if key not in raw:
            raise DocumentError(f"missing field {key!r}")
    def is_int(x) -> bool:
        return type(x) is int  # bool is an int subclass, reject it

    rays = raw["rays"]
    if (not isinstance(rays, list)
            or any(not isinstance(r, list) or len(r) != 2
                   or not all(is_int(c) for c in r) for r in rays)):
        raise DocumentError("field 'rays' must be a list of integer pairs")
    coeffs = raw["divisor"]
    if not isinstance(coeffs, list) or not all(is_int(c) for c in coeffs):
        raise DocumentError("field 'divisor' must be a list of integers")
    _check_input_size([*coeffs, *(c for r in rays for c in r)])
    if len(coeffs) != len(rays):
        raise DocumentError(
            f"field 'divisor' has {len(coeffs)} entries for {len(rays)} rays")
    flag = None
    if "flag" in raw and raw["flag"] is not None:
        fr = raw["flag"]
        if (not isinstance(fr, dict) or set(fr) != {"ray", "cone"}
                or not all(is_int(fr[k]) for k in ("ray", "cone"))):
            raise DocumentError("field 'flag' must be an object {\"ray\": i, \"cone\": j}")
        flag = TFlag(fr["ray"], fr["cone"])
    variant = raw.get("decomposition_variant")
    if variant is not None and not isinstance(variant, str):
        raise DocumentError("field 'decomposition_variant' must be a string")
    return InstanceDocument(
        rays=tuple((r[0], r[1]) for r in rays),
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
def _output(path: str | None, out, **kwargs):
    """The text file at path, or out when path is None.

    A failure to open, write or close the file raises DocumentError.
    """
    if path is None:
        yield out
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


def frac(q: Fraction | int | None) -> str:
    return "-" if q is None else str(Fraction(q))


def half(x: int | None) -> str:
    """x/2 as frac(Fraction(x, 2)) writes it, made from the int."""
    if x is None:
        return "-"
    return str(x // 2) if x % 2 == 0 else f"{x}/2"


# ---------------------------------------------------------------- commands


def _build(doc: InstanceDocument, out) -> TorusDivisor | None:
    """Validate the fan; on failure print violations and return None."""
    try:
        fan = validate_fan(doc.rays)
    except FanValidationError as e:
        print("fan: invalid", file=out)
        for v in e.violations:
            print(f"  {v}", file=out)
        return None
    return divisor(fan, doc.divisor)


def cmd_check(args, out=None) -> int:
    out = out or sys.stdout
    D = _build(load_instance(args.path), out)
    if D is None:
        return 1
    print(f"fan: valid ({D.fan.n_rays} rays)", file=out)
    gen = generation_violations(D)
    print(f"globally generated: {'true' if not gen else 'false'}", file=out)
    for j, i in gen:
        h = D.cocycle[j]
        print(f"  cone {j}: <{h}, ray {i}> = {dot(h, D.fan.rays[i])} < {-D.coeffs[i]}", file=out)
    amp = ampleness_violations(D)
    print(f"ample: {'true' if not amp else 'false'}", file=out)
    for j, i in amp:
        h = D.cocycle[j]
        slack = dot(h, D.fan.rays[i]) + D.coeffs[i]
        print(f"  cone {j} vs ray {i}: slack {slack} (need > 0)", file=out)
    return 0 if not amp else 1


def _parse_flag(text: str) -> TFlag:
    try:
        i, j = (int(p) for p in text.split(","))
    except ValueError:
        raise DocumentError(f"flag must be 'ray,cone', got {text!r}") from None
    return TFlag(i, j)


def _report_dict(report: VolumeReport) -> dict:
    """The report's JSON fields, without the per-flag data (see _report_json)."""
    out: dict = {"ample": report.ample, "agree": report.agree}
    if not report.ample:
        out["diagnostics"] = list(report.diagnostics)
        return out
    out["values"] = {
        "area_polytope": frac(report.area_polytope),
        "half_self_intersection": half(report.self_intersection),
        "simplex_sum": half(report.simplex_twice),
        "symbol_sum_half": half(report.symbol_intersection),
        "trivialization_area": frac(report.lhs_trivialization_area),
    }
    out["self_intersection"] = report.self_intersection
    out["display_flag"] = {"ray": report.display_flag.ray, "cone": report.display_flag.cone}
    out["contributing_flags"] = [[f.ray, f.cone] for f in report.contributing_flags]
    return out


def _flag_json(c: FlagContribution) -> str:
    """One per-flag block, laid out as json.dumps(..., indent=2) lays it out.

    Term k omits the k-th chart and vector; the matrix columns are the two
    vectors kept. Every flag point is a rational point, so each residue
    degree is 1.
    """
    (u0, u1), (v0, v1), (x0, x1) = c.vectors
    a0, a1, a2 = c.charts
    d0, d1, d2 = c.signed_dets
    return (f'    {{\n      "flag": [\n        {c.flag.ray},\n        {c.flag.cone}\n      ],\n'
            f'      "subtotal": "{half(c.twice)}",\n      "terms": [\n'
            f'        {{\n          "omitted": 0,\n'
            f'          "sections": [\n            {a1},\n            {a2}\n          ],\n'
            f'          "matrix": [\n            [\n              {v0},\n              {x0}\n            ],\n'
            f'            [\n              {v1},\n              {x1}\n            ]\n          ],\n'
            f'          "signed_volume": "{half(d0)}",\n          "residue_degree": 1\n        }},\n'
            f'        {{\n          "omitted": 1,\n'
            f'          "sections": [\n            {a0},\n            {a2}\n          ],\n'
            f'          "matrix": [\n            [\n              {u0},\n              {x0}\n            ],\n'
            f'            [\n              {u1},\n              {x1}\n            ]\n          ],\n'
            f'          "signed_volume": "{half(d1)}",\n          "residue_degree": 1\n        }},\n'
            f'        {{\n          "omitted": 2,\n'
            f'          "sections": [\n            {a0},\n            {a1}\n          ],\n'
            f'          "matrix": [\n            [\n              {u0},\n              {v0}\n            ],\n'
            f'            [\n              {u1},\n              {v1}\n            ]\n          ],\n'
            f'          "signed_volume": "{half(d2)}",\n          "residue_degree": 1\n        }}\n'
            f'      ]\n    }}')


def _report_json(report: VolumeReport) -> str:
    """The report as json.dumps(..., indent=2) lays it out, byte for byte.

    The small head goes through json.dumps; the per-flag blocks, where every
    leaf is an int or a p/q string, are written from templates and spliced
    in before the closing brace.
    """
    head = json.dumps(_report_dict(report), indent=2)
    if not report.ample:
        return head
    flags = ",\n".join(map(_flag_json, report.per_flag))
    return f'{head[:-2]},\n  "per_flag": [\n{flags}\n  ]\n}}'


def _flag_text(c: FlagContribution) -> str:
    """One flag's lines of the text report: its subtotal, then term k with the
    k-th chart and vector omitted, as in _flag_json."""
    (u0, u1), (v0, v1), (x0, x1) = c.vectors
    a0, a1, a2 = c.charts
    d0, d1, d2 = c.signed_dets
    return (f"flag (ray {c.flag.ray}, cone {c.flag.cone}): subtotal {half(c.twice)}\n"
            f"    omit 0: sections ({a1}, {a2}) matrix (({v0}, {x0}), ({v1}, {x1})) volume {half(d0)}\n"
            f"    omit 1: sections ({a0}, {a2}) matrix (({u0}, {x0}), ({u1}, {x1})) volume {half(d1)}\n"
            f"    omit 2: sections ({a0}, {a1}) matrix (({u0}, {v0}), ({u1}, {v1})) volume {half(d2)}")


def _print_text_report(report: VolumeReport, out) -> None:
    if not report.ample:
        print("ample: false", file=out)
        for d in report.diagnostics:
            print(f"  {d}", file=out)
        return
    print(f"area(P_D)              = {frac(report.area_polytope)}", file=out)
    print(f"D.D / 2                = {half(report.self_intersection)}   (D.D = {report.self_intersection})", file=out)
    print(f"simplex sum            = {half(report.simplex_twice)}", file=out)
    print(f"symbol sum / 2         = {half(report.symbol_intersection)}", file=out)
    f = report.display_flag
    print(f"trivialization area    = {frac(report.lhs_trivialization_area)}   (flag ray {f.ray}, cone {f.cone})", file=out)
    cf = [f"(ray {g.ray}, cone {g.cone})" for g in report.contributing_flags]
    print(f"contributing flags     : {', '.join(cf) if cf else 'none'}", file=out)
    for c in report.per_flag:
        print(_flag_text(c), file=out)
    print(f"agree: {'true' if report.agree else 'false'}", file=out)


def _csv_routes(report: VolumeReport) -> list[str]:
    """The area, D.D, simplex sum and symbol sum / 2 columns of a CSV row."""
    return [frac(report.area_polytope), frac(report.self_intersection),
            half(report.simplex_twice), half(report.symbol_intersection)]


def cmd_report(args, out=None) -> int:
    out = out or sys.stdout
    doc = load_instance(args.path)
    display = _parse_flag(args.flag) if args.flag is not None else (doc.flag or TFlag(0, 0))
    D = _build(doc, out)
    if D is None:
        return 1
    variant = doc.decomposition_variant if args.decomposition is None else args.decomposition
    if variant is None:
        variant = "default"
    try:
        dec = standard_decomposition(D.fan, variant)
        check_flag(D.fan, display)
    except ValueError as e:
        raise DocumentError(str(e)) from None
    report = okounkov_volume_report(D, dec, display)
    if args.format == "json":
        print(_report_json(report), file=out)
    elif args.format == "csv":
        print("area,dsq,simplex_sum,symbol_sum,triv_area,agree", file=out)
        print(",".join([*_csv_routes(report), frac(report.lhs_trivialization_area),
                        "true" if report.agree else "false"]), file=out)
    else:
        _print_text_report(report, out)
    if not report.ample:
        return 1
    return 0 if report.agree else 1


def cmd_hirzebruch(args, out=None) -> int:
    out = out or sys.stdout
    if args.l < 1:
        raise DocumentError("--l must be >= 1")
    fan = hirzebruch_fan(args.l)
    doc = InstanceDocument(rays=fan.rays, divisor=(0, args.a, args.b, 0))
    with _output(args.emit, out) as fh:
        print(instance_json(doc), file=fh)
    return 0


def _parse_range(text: str) -> range:
    parts = text.split("..")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise DocumentError(f"range must be 'K' or 'K1..K2', got {text!r}") from None
    if hi < lo:
        raise DocumentError(f"empty range {text!r}")
    return range(lo, hi + 1)


def cmd_sweep(args, out=None) -> int:
    out = out or sys.stdout
    ls = _parse_range(args.l)
    As = _parse_range(args.a)
    extras = _parse_range(args.b_extra)
    if ls.start < 1:
        raise DocumentError("--l values must be >= 1")
    # b = l*a + extra is bilinear, so its extremes over the grid are at the corners
    _check_input_size([ls[-1], As[0], As[-1], *(l * a + e for l in (ls[0], ls[-1])
                                                  for a in (As[0], As[-1])
                                                  for e in (extras[0], extras[-1]))])
    variant = "default" if args.decomposition is None else args.decomposition
    try:
        # every F_l has four rays, so a variant that fits the first fits all
        standard_decomposition(hirzebruch_fan(ls.start), variant)
    except ValueError as e:
        raise DocumentError(str(e)) from None
    # rows go out as they are computed; the file is line buffered so each
    # finished row is on disk before the next report starts
    with _output(args.csv, out, buffering=1) as fh:
        print("l,a,b,area,dsq,simplex_sum,symbol_sum,agree", file=fh)
        all_agree = True
        for l in ls:
            fan = hirzebruch_fan(l)
            dec = standard_decomposition(fan, variant)
            for a in As:
                for extra in extras:
                    b = l * a + extra
                    report = okounkov_volume_report(divisor(fan, (0, a, b, 0)), dec)
                    all_agree = all_agree and report.agree
                    print(",".join([str(l), str(a), str(b), *_csv_routes(report),
                                    "true" if report.agree else "false"]), file=fh)
    return 0 if all_agree else 1


# ------------------------------------------------------------- polytope svg

_SCALE = 40


def _svg_polygon(poly: Polygon, style: str) -> str:
    pts = [(int(x) * _SCALE, -int(y) * _SCALE) for x, y in poly.vertices]
    if len(pts) == 1:
        (x, y), = pts
        return f'<circle cx="{x}" cy="{y}" r="5" {style}/>'
    if len(pts) == 2:
        (x0, y0), (x1, y1) = pts
        return f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" stroke-width="3" {style}/>'
    attr = " ".join(f"{x},{y}" for x, y in pts)
    return f'<polygon points="{attr}" {style}/>'


def polytope_svg(D: TorusDivisor, flag: TFlag | None = None) -> str:
    """SVG drawing of the divisor polytope, optionally with a flag's image.

    All polytope vertices in scope are lattice points, so coordinates are
    integers times a fixed pixel scale: nothing is rounded.
    """
    polys = [(divisor_polytope(D), 'fill="#c8dcff" stroke="#1f4e9c" fill-opacity="0.7"')]
    caption = f"area = {frac(polys[0][0].area)}"
    if flag is not None:
        tp = trivialization_polytope(D, flag)
        polys.append((tp, 'fill="#ffd9b0" stroke="#b35900" fill-opacity="0.5"'))
        caption += (f"; flag (ray {flag.ray}, cone {flag.cone}) image area = {frac(tp.area)}"
                    f" ({'equal' if tp.area == polys[0][0].area else 'UNEQUAL'})")
    xs = [int(x) for poly, _ in polys for x, _ in poly.vertices]
    ys = [int(y) for poly, _ in polys for _, y in poly.vertices]
    x0, x1 = (min(xs) - 1) * _SCALE, (max(xs) + 1) * _SCALE
    y0, y1 = -(max(ys) + 1) * _SCALE, -(min(ys) - 1) * _SCALE
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{x0} {y0} {x1 - x0} {(y1 - y0) + _SCALE}">',
        f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" fill="white"/>',
    ]
    for poly, style in polys:
        parts.append(_svg_polygon(poly, style))
        for x, y in poly.vertices:
            parts.append(f'<circle cx="{int(x) * _SCALE}" cy="{-int(y) * _SCALE}" r="3" fill="black"/>')
    parts.append(f'<text x="{x0 + 5}" y="{y1 + _SCALE - 10}" font-size="16">{caption}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def cmd_polytope(args, out=None) -> int:
    out = out or sys.stdout
    doc = load_instance(args.path)
    flag = _parse_flag(args.flag) if args.flag is not None else doc.flag
    D = _build(doc, out)
    if D is None:
        return 1
    if flag is not None:
        try:
            check_flag(D.fan, flag)
        except ValueError as e:
            raise DocumentError(str(e)) from None
    try:
        svg = polytope_svg(D, flag)
    except NotGloballyGenerated as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    with _output(args.svg, out) as fh:
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
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("report", help="compute the four volume routes and verify agreement")
    p.add_argument("path")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--flag", default=None, metavar="RAY,CONE",
                   help="display flag for the trivialization polytope")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("hirzebruch", help="emit an instance document for the ruled-surface family")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--emit", default=None, metavar="PATH")
    p.set_defaults(func=cmd_hirzebruch)

    p = sub.add_parser("sweep", help="verify agreement over a parameter grid, emit CSV")
    p.add_argument("--l", required=True, metavar="K or K1..K2")
    p.add_argument("--a", required=True, metavar="K or K1..K2")
    p.add_argument("--b-extra", required=True, metavar="K or K1..K2",
                   help="b = l*a + extra for each extra in the range")
    p.add_argument("--csv", default=None, metavar="PATH")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("polytope", help="render the divisor polytope as SVG")
    p.add_argument("path")
    p.add_argument("--svg", required=True, metavar="PATH")
    p.add_argument("--flag", default=None, metavar="RAY,CONE")
    p.set_defaults(func=cmd_polytope)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout has gone; send what is still buffered to
        # devnull, so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    entry()
