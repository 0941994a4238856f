"""Integer univariate polynomials and their real roots, for motion.

* ``UniPoly`` is a univariate polynomial with integer coefficients; a
  rational one is stored as a positive multiple, which has the same roots
  and signs.  Its gcd and squarefree part are primitive with a positive
  leading coefficient (not monic), Sturm chains are built from
  pseudo-remainders divided by their positive content, and the sign at a
  rational a/b is the sign of the integer sum c_i a^i b^(deg-i).  Real-root
  isolation on an open interval bisects on the Sturm chain of p itself and
  returns disjoint rational intervals with certified root-free endpoints;
  downstream code only ever needs sample points strictly between roots,
  never the roots themselves.

Only ``motion`` imports this module, so the commands that count faces do
not load it.  ``exactnum`` still resolves the names isolate_roots,
count_distinct_roots, bisect_root_interval, squarefree_part and poly_gcd,
loading this module on first use.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import BoundaryRootError, DegeneratePolynomialError, DimensionError
from .exactnum import Rat, _Record, integer_rescaling, rat


class UniPoly(_Record):
    """Univariate polynomial with integer coefficients; coeffs[i] is the
    coefficient of t^i, and the last one is nonzero.

    ``make`` accepts rational coefficients and stores them times the
    positive lcm of their denominators, which keeps every root and sign.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def make(coeffs: Sequence[int | str | Fraction]) -> UniPoly:
        vals = [rat(c) for c in coeffs]
        while vals and vals[-1] == 0:
            vals.pop()
        return UniPoly(tuple(integer_rescaling(vals)[1]))

    @staticmethod
    def zero() -> UniPoly:
        return UniPoly(())

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, t: Rat | int) -> Rat | int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def homogeneous(self, a: int, b: int, degree: int | None = None) -> int:
        """The integer sum of c_i a^i b^(degree-i), which is b^degree * p(a/b);
        degree defaults to the degree of p and must not be below it."""
        acc, pw = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * a + c * pw
            pw *= b
        if degree is not None and self.coeffs:
            if degree < self.degree:
                raise DimensionError("homogenising degree below the polynomial degree")
            acc *= b ** (degree - self.degree)
        return acc

    def sign_at(self, x: Rat | int) -> int:
        """Sign of p at the rational x, by integer homogeneous Horner."""
        v = self.homogeneous(x.numerator, x.denominator)
        return (v > 0) - (v < 0)

    def add(self, other: UniPoly) -> UniPoly:
        n = max(len(self.coeffs), len(other.coeffs))
        out = [0] * n
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] += c
        while out and out[-1] == 0:
            out.pop()
        return UniPoly(tuple(out))

    def neg(self) -> UniPoly:
        return UniPoly(tuple(-c for c in self.coeffs))

    def sub(self, other: UniPoly) -> UniPoly:
        return self.add(other.neg())

    def mul(self, other: UniPoly) -> UniPoly:
        if self.is_zero() or other.is_zero():
            return UniPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(tuple(out))  # Z is a domain: the top coefficient is nonzero

    # operator spellings for ring-generic code such as cross_product
    __add__ = add
    __sub__ = sub
    __mul__ = mul
    __neg__ = neg

    def derivative(self) -> UniPoly:
        return UniPoly(tuple(i * c for i, c in enumerate(self.coeffs))[1:])


def _div_content(p: UniPoly) -> UniPoly:
    """p divided by the positive gcd of its coefficients; signs are kept."""
    c = math.gcd(*p.coeffs)
    return p if c <= 1 else UniPoly(tuple(x // c for x in p.coeffs))


def _primitive(p: UniPoly) -> UniPoly:
    """The primitive part of p with a positive leading coefficient."""
    p = _div_content(p)
    return p.neg() if p.coeffs and p.coeffs[-1] < 0 else p


def _prem(a: UniPoly, b: UniPoly) -> UniPoly:
    """A positive multiple of the remainder of a divided by nonzero b.

    Pseudo-division in Z[t]: each step scales the running remainder by
    |lc(b)| before it cancels the top term, so no fraction arises and the
    factor picked up is positive.
    """
    bc = b.coeffs if b.coeffs[-1] > 0 else tuple(-c for c in b.coeffs)
    lead, m = bc[-1], len(bc) - 1
    rem = list(a.coeffs)
    while len(rem) > m:
        f = rem.pop()
        k = len(rem) - m
        if lead != 1:
            rem = [lead * x for x in rem]
        for i in range(m):
            rem[k + i] -= f * bc[i]
        while rem and rem[-1] == 0:
            rem.pop()
    return UniPoly(tuple(rem))


def _exact_quotient(a: UniPoly, b: UniPoly) -> UniPoly:
    """a / b where the primitive b divides a: by Gauss's lemma the quotient
    has integer coefficients, so every coefficient division is exact."""
    rem = list(a.coeffs)
    bc = b.coeffs
    lead, m = bc[-1], len(bc) - 1
    q = [0] * (len(rem) - m)
    for k in range(len(q) - 1, -1, -1):
        f = rem[k + m] // lead
        q[k] = f
        for i in range(m + 1):
            rem[k + i] -= f * bc[i]
    return UniPoly(tuple(q))


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Greatest common divisor, primitive with a positive leading coefficient.

    That is 1 when a and b are coprime and zero only when both are zero.
    The primitive pseudo-remainder sequence keeps every step in Z[t].
    """
    a, b = _primitive(a), _primitive(b)
    while not b.is_zero():
        a, b = b, _primitive(_prem(a, b))
    return a


def squarefree_part(p: UniPoly) -> UniPoly:
    """p divided by gcd(p, p'): the same distinct roots, each simple.
    Primitive with a positive leading coefficient."""
    if p.is_zero():
        raise DegeneratePolynomialError("squarefree part of the zero polynomial")
    g = poly_gcd(p, p.derivative())
    return _primitive(p if g.degree <= 0 else _exact_quotient(p, g))


def _sturm_chain(p: UniPoly) -> list[UniPoly]:
    """Sturm sequence of p: p, p', then the negated remainders.  Each
    remainder is a pseudo-remainder divided by its positive content, a
    positive multiple of the Euclidean one, so every sign is the same."""
    chain = [p, _div_content(p.derivative())]
    while not chain[-1].is_zero():
        chain.append(_div_content(_prem(chain[-2], chain[-1]).neg()))
    chain.pop()
    return chain


def _variations(chain: list[UniPoly], x: Rat) -> int:
    signs = [s for s in (q.sign_at(x) for q in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_distinct_roots(p: UniPoly, lo: Rat, hi: Rat) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi).

    Requires lo < hi, p nonzero and p(lo) != 0 != p(hi).
    """
    if lo >= hi:
        raise DimensionError("count_distinct_roots requires lo < hi")
    if p.is_zero():
        raise DegeneratePolynomialError("root count of the zero polynomial")
    if p.sign_at(lo) == 0 or p.sign_at(hi) == 0:
        raise BoundaryRootError(f"root at interval endpoint of ({lo}, {hi})")
    if p.degree <= 0:
        return 0
    # Sturm's theorem holds for p itself: every element of its chain is a
    # multiple of g = gcd(p, p'), divided by g the chain is a Sturm sequence
    # of p/g, and g has no root where p has none, such as lo and hi.
    chain = _sturm_chain(p)
    return _variations(chain, lo) - _variations(chain, hi)


def _isolate_on_chain(p: UniPoly, chain: list[UniPoly], lo: Rat, hi: Rat) -> list[tuple[Rat, Rat]]:
    total = _variations(chain, lo) - _variations(chain, hi)
    if total == 0:
        return []
    if total == 1:
        return [(lo, hi)]
    mid = (lo + hi) / 2
    if p.sign_at(mid) == 0:
        # mid is itself a root; fence it off with a window free of the others
        w = (hi - lo) / 4
        while True:
            a, b = mid - w, mid + w
            if a > lo and b < hi and p.sign_at(a) != 0 and p.sign_at(b) != 0:
                inner = _variations(chain, a) - _variations(chain, b)
                if inner == 1:
                    break
            w /= 2
        return (
            _isolate_on_chain(p, chain, lo, a)
            + [(a, b)]
            + _isolate_on_chain(p, chain, b, hi)
        )
    return _isolate_on_chain(p, chain, lo, mid) + _isolate_on_chain(p, chain, mid, hi)


def isolate_roots(p: UniPoly, lo: Rat, hi: Rat) -> list[tuple[tuple[Rat, Rat], bool]]:
    """Isolate the distinct real roots of p inside the open interval (lo, hi).

    Returns sorted pairwise-disjoint rational intervals, one per root,
    each tagged True when the root is simple (multiplicity 1 in p).
    Interval endpoints are certified non-roots.
    """
    lo, hi = rat(lo), rat(hi)
    if lo >= hi:
        raise DimensionError("isolate_roots requires lo < hi")
    if p.is_zero():
        raise DegeneratePolynomialError("cannot isolate roots of the zero polynomial")
    if p.sign_at(lo) == 0 or p.sign_at(hi) == 0:
        raise BoundaryRootError(f"polynomial vanishes at interval endpoint ({lo} or {hi})")
    if p.degree <= 0:
        return []
    chain = _sturm_chain(p)
    intervals = _isolate_on_chain(p, chain, lo, hi)
    # The chain ends in gcd(p, p') times a constant, and a root of p is
    # multiple exactly when that gcd vanishes there too.
    g = chain[-1]
    if g.degree <= 0:
        return [(iv, True) for iv in intervals]
    g_chain = _sturm_chain(g)
    return [((a, b), _variations(g_chain, a) == _variations(g_chain, b)) for a, b in intervals]


def bisect_root_interval(q: UniPoly, interval: tuple[Rat, Rat]) -> tuple[Rat, Rat]:
    """Halve an interval holding exactly one root of q, a simple one (as an
    isolating interval flagged simple by isolate_roots does).

    The sign of q changes across the root, so one midpoint sign test picks
    the half containing it.  When the midpoint happens to be the root, a
    small window around it is returned instead.
    """
    a, b = rat(interval[0]), rat(interval[1])
    mid = (a + b) / 2
    sm = q.sign_at(mid)
    if sm == 0:
        w = (b - a) / 8
        return (mid - w, mid + w)
    if q.sign_at(a) * sm < 0:
        return (a, mid)
    return (mid, b)
