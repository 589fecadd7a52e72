"""Independent oracle for the benchmark.

Nothing here imports toricvol. Every expected value is computed from the
rays and coefficients alone, by the local curve-degree formulas of a smooth
complete toric surface, so a wrong library route cannot make its own check
pass.

For rays r_0..r_{n-1} in cyclic order and coefficients d_i, the degree of D
on the curve D_i is D.D_i = d_{i-1} + d_{i+1} - a_i*d_i with
a_i = cross(r_{i-1}, r_{i+1}). D is ample iff every degree is positive
(toric Kleiman criterion), and D.D = sum_i d_i * (D.D_i).
"""

from __future__ import annotations

import json
from fractions import Fraction

VALUE_KEYS = ("area_polytope", "half_self_intersection", "simplex_sum",
              "symbol_sum_half", "trivialization_area")
TEXT_PREFIXES = ("area(P_D)", "D.D / 2", "simplex sum", "symbol sum / 2",
                 "trivialization area")


def cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def dot(u, v) -> int:
    return u[0] * v[0] + u[1] * v[1]


def curve_degrees(rays, d) -> list[int]:
    n = len(rays)
    return [d[i - 1] + d[(i + 1) % n] - cross(rays[i - 1], rays[(i + 1) % n]) * d[i]
            for i in range(n)]


def is_ample(rays, d) -> bool:
    return all(x > 0 for x in curve_degrees(rays, d))


def self_intersection(rays, d) -> int:
    return sum(di * x for di, x in zip(d, curve_degrees(rays, d)))


def local_equations(rays, d) -> list[tuple[int, int]]:
    """h_j with <h_j, r_j> = -d_j and <h_j, r_{j+1}> = -d_{j+1}.

    Solved by the inverse of the unimodular matrix with rows r_j, r_{j+1}.
    """
    n = len(rays)
    out = []
    for j in range(n):
        (a, b), (c, e) = rays[j], rays[(j + 1) % n]
        dj, dk = d[j], d[(j + 1) % n]
        out.append((-e * dj + b * dk, c * dj - a * dk))
    return out


def flags(n: int) -> list[tuple[int, int]]:
    """All (ray, cone) flags: each cone j with its rays j and j+1."""
    return [f for j in range(n) for f in ((j, j), ((j + 1) % n, j))]


def expected_flag_vertices(rays, d, ray: int, cone: int) -> set[tuple[int, int]]:
    """Vertices of the flag's image polytope for ample D.

    The flag valuation of a character is its pairing with the flag ray, then
    with the cone's other ray. For ample D every local equation is a vertex.
    """
    n = len(rays)
    u, v = rays[cone], rays[(cone + 1) % n]
    r1, r2 = (u, v) if ray == cone else (v, u)
    return {(dot(h, r1), dot(h, r2)) for h in local_equations(rays, d)}


def lattice_points(rays, d, m: int) -> int:
    """Lattice points of m*P_D for ample D, by Pick's theorem.

    Edge i of P_D has lattice length D.D_i, so m*P_D has area m^2*D.D/2 and
    m*sum(D.D_i) boundary points.
    """
    degs = curve_degrees(rays, d)
    dsq = sum(di * x for di, x in zip(d, degs))
    return (m * m * dsq + m * sum(degs)) // 2 + 1


def box_candidates(rays, d, m: int) -> int:
    """Size of the integer bounding box of the level-m local equations."""
    h = local_equations(rays, d)
    xs = [m * e[0] for e in h]
    ys = [m * e[1] for e in h]
    return (max(xs) - min(xs) + 1) * (max(ys) - min(ys) + 1)


def check_report(fmt: str, rc, out: str, rays, d) -> str | None:
    """None when a `report` run matches the oracle, else the reason it does not.

    Ample input must exit 0 with all five values equal to D.D/2; non-ample
    input must exit 1 and say it is not ample.
    """
    ample = is_ample(rays, d)
    want_rc = 0 if ample else 1
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    dsq = self_intersection(rays, d)
    half = str(Fraction(dsq, 2))
    try:
        if fmt == "json":
            doc = json.loads(out)
            if doc["ample"] is not ample:
                return f"ample {doc['ample']}, expected {ample}"
            if not ample:
                return None
            got = [doc["values"][k] for k in VALUE_KEYS]
            if got != [half] * 5 or doc["self_intersection"] != dsq or doc["agree"] is not True:
                return f"values {got}, D.D {doc['self_intersection']}, expected {half}, {dsq}"
            return None
        lines = out.splitlines()
        if fmt == "csv":
            row = lines[1].split(",")
            want = [half, str(dsq), half, half, half, "true"] if ample else ["-"] * 5 + ["false"]
            return None if row == want else f"csv row {row}, expected {want}"
        if not ample:
            return None if lines[0] == "ample: false" else f"first line {lines[0]!r}"
        got = []
        for prefix in TEXT_PREFIXES:
            line = next(s for s in lines if s.startswith(prefix))
            got.append(line.split("=", 1)[1].split()[0])
        dsq_line = next(s for s in lines if s.startswith("D.D / 2"))
        if got != [half] * 5 or f"(D.D = {dsq})" not in dsq_line or lines[-1] != "agree: true":
            return f"text values {got}, expected {half} and D.D = {dsq}"
        return None
    except (ValueError, KeyError, IndexError, StopIteration, TypeError) as e:
        return f"unreadable {fmt} output: {type(e).__name__}: {e}"
