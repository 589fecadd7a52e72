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
point) reads exponents alone, and only that order is computed here, by one
kernel on unpacked ints (``_order``). The whole first boundary, coefficients
and sign included, lives in the test suite as the object oracle the kernel
is checked against. ``iterated_boundary`` sums the kernel over a symbol's
terms at one chart; the intersection number sums it over the fan's chart
table, once per flag.
"""

from __future__ import annotations

from operator import index

from .divisors import TorusDivisor
from .fan import OrbitDecomposition, Rank2Valuation, check_decomposition
from .lattice import _coords


def _order(r1: int, r2: int, s1: int, s2: int, f1: int, f2: int, g1: int, g2: int) -> int:
    # the order at the flag point of boundary{x^f, x^g}, the flag's rays r and s: the exponent
    # of g^v(f) * f^-v(g) has curve valuation v(f)v(g) - v(g)v(f) = 0, so it reduces with no
    # check, to its pairing with s
    vf, vg = f1 * r1 + f2 * r2, g1 * r1 + g2 * r2
    return (vf * g1 - vg * f1) * s1 + (vf * g2 - vg * f2) * s2


def iterated_boundary(w: Rank2Valuation, terms) -> int:
    """Boundary along the curve followed by the order at the flag point.

    ``terms`` are ``(mult, ef, eg)``, one per pure symbol mult * {x^ef, x^eg};
    each exponent is read as a plane point with ``operator.index``, so a float
    raises ``TypeError`` and another length ``ValueError``.
    """
    (r1, r2), (s1, s2), _, _ = w
    return sum(index(mult) * _order(r1, r2, s1, s2, *_coords(ef), *_coords(eg)) for mult, ef, eg in terms)


def intersection_number_via_symbols(D: TorusDivisor, dec: OrbitDecomposition) -> int:
    """Self-intersection number as a sum of iterated boundaries over all flags.

    Every flag contributes the iterated boundary of the symbol of the two
    transition functions selected by the orbit decomposition, from the dense
    orbit's chart to the flag curve's chart, then on to the flag point's
    chart; the kernel takes it on their exponents. Flags whose curve is
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
        # f = h_a / h_generic and g = h_cone / h_a, a the curve's owner
        total += _order(r1, r2, s1, s2, a1 - g1, a2 - g2, c1 - a1, c2 - a2)
    return total
