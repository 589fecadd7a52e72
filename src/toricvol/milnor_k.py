"""Iterated tame boundaries of degree-2 symbols of monomials, on exponents.

A symbol is a formal sum of pure symbols mult * {f, g} of monomials
f = c*x^ef and g = d*x^eg; the API takes it as ``(mult, ef, eg)`` terms.
The boundary maps depend on a flag only through its rank-2 valuation, so
they take the flag's chart, a ``Rank2Valuation`` from ``Fan2D.charts``.
For a flag with curve ray r1 and remaining cone ray r2, the first boundary
of a pure symbol {f, g} is the closed form

    boundary{f, g} = (-1)^(v(f)v(g)) * red(g^v(f) * f^-v(g)),

where v is the pairing with r1 and red rewrites a v-trivial monomial in the
residue coordinate t (image of the chart coordinate dual to r2): a monomial
c*x^e with <e, r1> = 0 reduces to c * t^<e, r2>. This is the unique formula
consistent with boundary{pi, u} = red(u) and boundary{u1, u2} = 1 for a
uniformizer pi and units u. The sign and the coefficients only touch the
residue's unit part, so the second boundary (the order in t at the flag
point) reads exponents alone, and only that order is computed here
(``_closed_form``). The whole first boundary, coefficients and sign included,
lives in the test suite as the object oracle the closed form is checked
against. The intersection number writes the closed form out on ints in one
loop over the fan's chart table; the per-flag sum over ``_closed_form``
lives in the test suite as its oracle.
"""

from __future__ import annotations

from operator import index

from .divisors import TorusDivisor
from .fan import OrbitDecomposition, Rank2Valuation, check_decomposition
from .lattice import Vec


def _reduce(w: Rank2Valuation, exponent: Vec) -> int:
    # the residue exponent of a monomial of curve-valuation zero
    v, t = w.value(exponent)
    if v != 0:
        raise ValueError(f"cannot reduce: curve valuation is {v}, not 0")
    return t


def _closed_form(w: Rank2Valuation, ef: Vec, eg: Vec) -> tuple[int, int, int]:
    # v(f), v(g) and the residue exponent of g^v(f) * f^-v(g)
    r1, r2 = w.first_ray
    vf, vg = ef[0] * r1 + ef[1] * r2, eg[0] * r1 + eg[1] * r2
    return vf, vg, _reduce(w, (vf * eg[0] - vg * ef[0], vf * eg[1] - vg * ef[1]))


def _pair(exponent) -> Vec:
    e1, e2 = exponent
    return index(e1), index(e2)


def iterated_boundary(w: Rank2Valuation, terms) -> int:
    """Boundary along the curve followed by the order at the flag point.

    ``terms`` are ``(mult, ef, eg)``, one per pure symbol mult * {x^ef, x^eg};
    each exponent is read as an int pair, so a float raises ``TypeError``
    and another length ``ValueError``.
    """
    return sum(index(mult) * _closed_form(w, _pair(ef), _pair(eg))[2] for mult, ef, eg in terms)


def intersection_number_via_symbols(D: TorusDivisor, dec: OrbitDecomposition) -> int:
    """Self-intersection number as a sum of iterated boundaries over all flags.

    Every flag contributes the iterated boundary of the symbol of the two
    transition functions selected by the orbit decomposition, from the dense
    orbit's chart to the flag curve's chart, then on to the flag point's
    chart; the closed form takes it on their exponents. Flags whose curve is
    not a ray closure or whose point is not a fixed point pair zero against
    monomial cocycles, so the finite sum over torus-invariant flags is the
    whole sum. All flag points are rational, so every residue degree is 1.
    """
    check_decomposition(D.fan, dec)
    h, owner = D.cocycle, dec.ray_owner
    g1, g2 = h[dec.generic_owner]
    total = 0
    for (ray, cone), ((r1, r2), (s1, s2), _, _) in D.fan.charts.items():
        (a1, a2), (c1, c2) = h[owner[ray]], h[cone]
        # _closed_form on f = h_a / h_generic and g = h_cone / h_a, a the curve's owner
        f1, f2, e1, e2 = a1 - g1, a2 - g2, c1 - a1, c2 - a2
        vf, vg = f1 * r1 + f2 * r2, e1 * r1 + e2 * r2
        # x*r1 + y*r2 = vf*vg - vg*vf = 0: the residue needs no check that _reduce makes
        x, y = vf * e1 - vg * f1, vf * e2 - vg * f2
        total += x * s1 + y * s2
    return total
