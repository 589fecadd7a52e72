"""Formal degree-2 symbols with monomial entries and their tame boundaries.

Symbols are kept formal: a multiset of entry pairs with integer
multiplicities, normalized only by merging duplicates, dropping zero
multiplicities and dropping pairs with a literal 1 entry (such symbols
vanish). No further normalization is attempted; equality of symbols is not
decidable and never needed, because only images under boundary maps are
computed, and those are well defined.

The boundary maps depend on a flag only through its rank-2 valuation, so
they take the flag's chart, a ``Rank2Valuation`` from ``Fan2D.charts``.
For a flag with curve ray r1 and remaining cone ray r2, the first boundary
of a pure symbol {f, g} of monomials uses the closed form

    boundary{f, g} = (-1)^(v(f)v(g)) * red(g^v(f) * f^-v(g)),

where v is the pairing with r1 and red rewrites a v-trivial monomial in the
residue coordinate t (image of the chart coordinate dual to r2): a monomial
c*x^e with <e, r1> = 0 reduces to c * t^<e, r2>. This is the unique formula
consistent with boundary{pi, u} = red(u) and boundary{u1, u2} = 1 for a
uniformizer pi and units u. The sign only touches the residue coefficient,
a unit, so it never influences the integer produced by the second boundary
(the order in t at the flag point).

The closed form is computed once, on exponents (``_closed_form``). Coefficients
are ``Fraction``s, which only ``tame_boundary`` and ``specialization`` carry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index

from .divisors import TorusDivisor, cech_cocycle, Cocycle
from .fan import OrbitDecomposition, Rank2Valuation
from .lattice import Vec, cross, dot


@dataclass(frozen=True)
class MonomialFn:
    """Nonzero scalar times a character: c * x^e1 * y^e2, e read as an int pair."""

    coeff: Fraction
    exponent: Vec

    def __post_init__(self):
        e1, e2 = self.exponent
        object.__setattr__(self, "exponent", (index(e1), index(e2)))
        object.__setattr__(self, "coeff", Fraction(self.coeff))
        if self.coeff == 0:
            raise ValueError("monomial function with zero coefficient")

    @property
    def is_one(self) -> bool:
        return self.coeff == 1 and self.exponent == (0, 0)

    def __mul__(self, other: "MonomialFn") -> "MonomialFn":
        return MonomialFn(self.coeff * other.coeff,
                          (self.exponent[0] + other.exponent[0],
                           self.exponent[1] + other.exponent[1]))

    def __pow__(self, k: int) -> "MonomialFn":
        return MonomialFn(self.coeff ** k, (k * self.exponent[0], k * self.exponent[1]))


def monomial(exponent: Vec, coeff=1) -> MonomialFn:
    return MonomialFn(coeff, exponent)


@dataclass(frozen=True)
class ResidueElement:
    """Element c * t^k of the residue field of a flag curve, k read as an int."""

    coeff: Fraction
    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "exponent", index(self.exponent))
        object.__setattr__(self, "coeff", Fraction(self.coeff))
        if self.coeff == 0:
            raise ValueError("residue element with zero coefficient")

    @property
    def is_one(self) -> bool:
        return self.coeff == 1 and self.exponent == 0

    def __mul__(self, other: "ResidueElement") -> "ResidueElement":
        return ResidueElement(self.coeff * other.coeff, self.exponent + other.exponent)

    def __pow__(self, k: int) -> "ResidueElement":
        return ResidueElement(self.coeff ** k, k * self.exponent)


Term = tuple[int, tuple[MonomialFn, MonomialFn]]


@dataclass(frozen=True)
class SymbolK2:
    """Formal integer combination of pure symbols {f, g}."""

    terms: tuple[Term, ...]

    @staticmethod
    def of(*terms: Term) -> "SymbolK2":
        merged: dict[tuple[MonomialFn, MonomialFn], int] = {}
        for mult, pair in terms:
            if pair[0].is_one or pair[1].is_one:
                continue
            merged[pair] = merged.get(pair, 0) + mult
        return SymbolK2(tuple((m, p) for p, m in merged.items() if m != 0))


def symbol(f: MonomialFn, g: MonomialFn) -> SymbolK2:
    """The pure symbol {f, g}."""
    return SymbolK2.of((1, (f, g)))


def _reduce(w: Rank2Valuation, exponent: Vec) -> int:
    # the residue exponent of a monomial of curve-valuation zero
    v, t = w.value(exponent)
    if v != 0:
        raise ValueError(f"cannot reduce: curve valuation is {v}, not 0")
    return t


def _closed_form(w: Rank2Valuation, ef: Vec, eg: Vec) -> tuple[int, int, int]:
    # v(f), v(g) and the residue exponent of g^v(f) * f^-v(g)
    vf, vg = dot(ef, w.first_ray), dot(eg, w.first_ray)
    return vf, vg, _reduce(w, (vf * eg[0] - vg * ef[0], vf * eg[1] - vg * ef[1]))


def tame_boundary(w: Rank2Valuation, S: SymbolK2) -> list[tuple[int, ResidueElement]]:
    """First boundary along the flag curve of chart w, term by term."""
    out = []
    for mult, (f, g) in S.terms:
        vf, vg, t = _closed_form(w, f.exponent, g.exponent)
        coeff = g.coeff ** vf * f.coeff ** -vg
        out.append((mult, ResidueElement(-coeff if vf * vg % 2 else coeff, t)))
    return out


def iterated_boundary(w: Rank2Valuation, S: SymbolK2) -> int:
    """Boundary along the curve followed by the order at the flag point."""
    return sum(mult * _closed_form(w, f.exponent, g.exponent)[2] for mult, (f, g) in S.terms)


def _check_uniformizer(w: Rank2Valuation, pi: MonomialFn) -> None:
    v_pi = dot(pi.exponent, w.first_ray)
    if v_pi != 1:
        raise ValueError(f"not a uniformizer: curve valuation {v_pi}, need 1")


def specialization(w: Rank2Valuation, pi: MonomialFn, f: MonomialFn) -> ResidueElement:
    """Uniformizer-dependent reduction f |-> red(f * pi^-v(f))."""
    _check_uniformizer(w, pi)
    u = f * (pi ** (-dot(f.exponent, w.first_ray)))
    return ResidueElement(u.coeff, _reduce(w, u.exponent))


def valuation_via_symbols(
    w: Rank2Valuation, f: MonomialFn, pi1: MonomialFn | None = None
) -> tuple[int, int]:
    """Valuation vector computed purely through boundary maps.

    First component: degree-1 boundary of {f}, i.e. the curve valuation.
    Second: iterated boundary of {pi1, f}. With the default dual-basis
    uniformizer this equals the flag valuation of the exponent; a different
    uniformizer gives the (different) rank-2 valuation it induces, while
    2x2 determinants of such vectors stay uniformizer-independent.
    """
    pi1 = monomial(w.pi1) if pi1 is None else pi1
    _check_uniformizer(w, pi1)
    return (dot(f.exponent, w.first_ray), iterated_boundary(w, symbol(pi1, f)))


def det_formula_check(w: Rank2Valuation, f: MonomialFn, g: MonomialFn) -> bool:
    """Iterated boundary of {f, g} against the 2x2 valuation determinant."""
    return iterated_boundary(w, symbol(f, g)) == cross(w.value(f.exponent), w.value(g.exponent))


def cocycle_expansion(cocycle: Cocycle, alphas: tuple[int, int, int]) -> SymbolK2:
    """Alternating three-term rewriting of a transition-cocycle symbol.

    For chart indices (a0, a1, a2) this is the combination
    +{h_a1, h_a2} - {h_a0, h_a2} + {h_a0, h_a1}, whose boundary at every
    flag equals the boundary of {f_a0a1, f_a1a2}.
    """
    h = [monomial(cocycle[a]) for a in alphas]
    return SymbolK2.of(
        (1, (h[1], h[2])),
        (-1, (h[0], h[2])),
        (1, (h[0], h[1])),
    )


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
    fan = D.fan
    if len(dec.ray_owner) != fan.n_rays:
        raise ValueError(f"decomposition of {len(dec.ray_owner)} rays for a fan of {fan.n_rays}")
    h, a0 = D.cocycle, dec.generic_owner
    total = 0
    for flag, w in fan.charts.items():
        a1 = dec.ray_owner[flag.ray]
        total += _closed_form(w, cech_cocycle(h, a0, a1), cech_cocycle(h, a1, flag.cone))[2]
    return total
