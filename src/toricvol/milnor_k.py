"""Formal degree-2 symbols with monomial entries and their tame boundaries.

Symbols are kept formal: a multiset of entry pairs with integer
multiplicities, normalized only by merging duplicates, dropping zero
multiplicities and dropping pairs with a literal 1 entry (such symbols
vanish). No further normalization is attempted; equality of symbols is not
decidable and never needed, because only images under boundary maps are
computed, and those are well defined.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index

from .divisors import TorusDivisor, cech_cocycle, Cocycle
from .fan import Fan2D, OrbitDecomposition
from .lattice import Vec, dot
from .valuation import Rank2Valuation, TFlag, enumerate_tflags, flag_valuation


@dataclass(frozen=True)
class MonomialFn:
    """Nonzero scalar times a character: c * x^e1 * y^e2."""

    coeff: Fraction
    exponent: Vec

    def __post_init__(self):
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
        return MonomialFn(self.coeff ** k,
                          (k * self.exponent[0], k * self.exponent[1]))


def monomial(exponent: Vec, coeff=1) -> MonomialFn:
    return MonomialFn(Fraction(coeff), (index(exponent[0]), index(exponent[1])))


@dataclass(frozen=True)
class ResidueElement:
    """Element c * t^k of the residue field of a flag curve."""

    coeff: Fraction
    exponent: int

    def __post_init__(self):
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


def _reduce(w: Rank2Valuation, f: MonomialFn) -> ResidueElement:
    # rewrite a monomial of curve-valuation zero in the residue coordinate
    v, t = w.value(f.exponent)
    if v != 0:
        raise ValueError(f"cannot reduce: curve valuation is {v}, not 0")
    return ResidueElement(f.coeff, t)


def _tame_boundary(w: Rank2Valuation, S: SymbolK2) -> list[tuple[int, ResidueElement]]:
    out = []
    for mult, (f, g) in S.terms:
        vf = dot(f.exponent, w.first_ray)
        vg = dot(g.exponent, w.first_ray)
        res = _reduce(w, (g ** vf) * (f ** (-vg)))
        if vf * vg % 2:
            res = ResidueElement(-res.coeff, res.exponent)
        out.append((mult, res))
    return out


def _iterated_boundary(w: Rank2Valuation, S: SymbolK2) -> int:
    return sum(mult * res.exponent for mult, res in _tame_boundary(w, S))


def tame_boundary(fan: Fan2D, flag: TFlag, S: SymbolK2) -> list[tuple[int, ResidueElement]]:
    """First boundary along the flag curve, term by term."""
    return _tame_boundary(flag_valuation(fan, flag), S)


def iterated_boundary(fan: Fan2D, flag: TFlag, S: SymbolK2) -> int:
    """Boundary along the curve followed by the order at the flag point."""
    return _iterated_boundary(flag_valuation(fan, flag), S)


def specialization(fan: Fan2D, flag: TFlag, pi: MonomialFn, f: MonomialFn) -> ResidueElement:
    """Uniformizer-dependent reduction f |-> red(f * pi^-v(f))."""
    w = flag_valuation(fan, flag)
    v_pi = dot(pi.exponent, w.first_ray)
    if v_pi != 1:
        raise ValueError(f"not a uniformizer: curve valuation {v_pi}, need 1")
    vf = dot(f.exponent, w.first_ray)
    return _reduce(w, f * (pi ** (-vf)))


def valuation_via_symbols(
    fan: Fan2D, flag: TFlag, f: MonomialFn, pi1: MonomialFn | None = None
) -> tuple[int, int]:
    """Valuation vector computed purely through boundary maps.

    First component: degree-1 boundary of {f}, i.e. the curve valuation.
    Second: iterated boundary of {pi1, f}. With the default dual-basis
    uniformizer this equals the flag valuation of the exponent; a different
    uniformizer gives the (different) rank-2 valuation it induces, while
    2x2 determinants of such vectors stay uniformizer-independent.
    """
    w = flag_valuation(fan, flag)
    if pi1 is None:
        pi1 = monomial(w.pi1)
    v_pi = dot(pi1.exponent, w.first_ray)
    if v_pi != 1:
        raise ValueError(f"not a uniformizer: curve valuation {v_pi}, need 1")
    first = dot(f.exponent, w.first_ray)
    second = _iterated_boundary(w, SymbolK2.of((1, (pi1, f))))
    return (first, second)


def det_formula_check(fan: Fan2D, flag: TFlag, f: MonomialFn, g: MonomialFn) -> bool:
    """Iterated boundary of {f, g} against the 2x2 valuation determinant."""
    w = flag_valuation(fan, flag)
    wf = w.value(f.exponent)
    wg = w.value(g.exponent)
    det = wf[0] * wg[1] - wg[0] * wf[1]
    return _iterated_boundary(w, symbol(f, g)) == det


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

    Every flag contributes the iterated boundary of the symbol built from
    the two transition functions selected by the orbit decomposition: from
    the dense orbit's chart to the flag curve's chart, then on to the flag
    point's chart. Flags whose curve is not a ray closure or whose point is
    not a fixed point pair zero against monomial cocycles, so the finite
    sum over torus-invariant flags is the whole sum. All flag points are
    rational, so every residue degree is 1.
    """
    fan = D.fan
    if dec.fan != fan:
        raise ValueError("decomposition belongs to a different fan")
    cocycle = D.cocycle
    a0 = dec.generic_owner
    total = 0
    for flag in enumerate_tflags(fan):
        a1 = dec.ray_owner[flag.ray]
        a2 = flag.cone
        f1 = monomial(cech_cocycle(cocycle, a0, a1))
        f2 = monomial(cech_cocycle(cocycle, a1, a2))
        total += iterated_boundary(fan, flag, symbol(f1, f2))
    return total
