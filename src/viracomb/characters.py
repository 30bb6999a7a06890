"""Minimal-model Virasoro character series.

The bosonic form evaluates the alternating lattice sum divided by
(q)_oo for a label (p, p', r, s).  The fermionic form for the (1,2)
entries of the M(p, 2p+1) / M(p, 2p-1) families sums manifestly positive
terms over particle occupation vectors, weighted by the quadratic form of
the inverse type-A Cartan matrix.  Half-integer moduli are avoided
throughout by carrying t doubled as an integer T = 2t.

The fermionic term formula is written once, in `_walk`, which does not
build its terms one by one.  It walks the occupation vectors level by level
from the top charge down, and merges the histories that agree on (m_c,
sum_{k>c} n_k): those two numbers fix everything the levels below add, so
one coefficient list of q-binomial products, multiplied and divided by one
factor (1 - q^k) in place per step, serves all of them.  The factor
1/(q)_{m_1} is left out of the walk: each term is merged under its m_1, and
one Horner sweep divides by (1 - q^M) once per value M, so only a few dozen
such passes are made per call.  `fermionic_character_12` walks every
vector; `particles.sector_gf` walks the one vector of its sector, each
level stopping at that vector's n_c.  The closed-form sums for M(2,5),
M(3,7) and M(4,7) share one row walk, `_row_walk`, which builds each
term from its neighbour in the same way, a few passes per term.
`bosonic_character` divides the alternating sum by (q)_oo in place with
one pentagonal pass (`qseries._divide_poch_inf`).  `occupation_vectors`
is a plain fill, one nested generator per charge, and the fermionic walk
keeps one dict of merged states per level.  Both visit only the charges
whose lone particle fits within the order, about sqrt(2N) of them whatever
T is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count
from operator import add

from .halfpath import rsos_label, theorem1_domain
# pochhammer_inf_inverse is not called here: bench/tracing.py wraps it under this name
from .qseries import (QSeries, _divide_one_minus, _divide_poch_inf, _merge, _times_one_minus,
                      pochhammer_inf_inverse)
from .rsos import tail_band_index


class InvalidLabelError(ValueError):
    """Raised for character labels outside the admissible ranges."""


@dataclass(frozen=True)
class CharacterLabel:
    """A label (p, p', r, s) with gcd(p,p')=1, 1<p<p', 1<=r<p, 1<=s<p'."""

    p: int
    p_prime: int
    r: int
    s: int

    def __post_init__(self) -> None:
        p, pp, r, s = self.p, self.p_prime, self.r, self.s
        if not 1 < p < pp:
            raise InvalidLabelError(f"need 1 < p < p', got p={p}, p'={pp}")
        if math.gcd(p, pp) != 1:
            raise InvalidLabelError(f"p={p} and p'={pp} must be coprime")
        if not 1 <= r < p:
            raise InvalidLabelError(f"need 1 <= r < p, got r={r}, p={p}")
        if not 1 <= s < pp:
            raise InvalidLabelError(f"need 1 <= s < p', got s={s}, p'={pp}")


def alternating_sum_series(p: int, pp: int, r: int, s: int, order: int) -> QSeries:
    """The alternating lattice sum over the integer index, before division.

    Accepts raw parameters without label validation so that symmetry checks
    can evaluate formally swapped labels; it needs 0 < r < p and 0 < s < p',
    which reflected and swapped labels keep.
    """
    _check_order(order)
    coeffs = [0] * (order + 1)
    # for lam != 0 both exponents exceed pp'(|lam| - 1)^2: the first since
    # |p'r - ps| < pp', the second since lam p + r and lam p' + s share a
    # sign and exceed (|lam| - 1)p and (|lam| - 1)p' in size; so no index
    # past reach contributes, and no exponent is negative
    reach = math.isqrt(order // (p * pp)) + 1
    for lam in range(-reach, reach + 1):
        e1 = lam * lam * p * pp + lam * (pp * r - p * s)
        e2 = (lam * p + r) * (lam * pp + s)
        if e1 <= order:
            coeffs[e1] += 1
        if e2 <= order:
            coeffs[e2] -= 1
    return QSeries(order, tuple(coeffs))


def bosonic_character(label: CharacterLabel, order: int) -> QSeries:
    """Character series for the given label, truncated to the given order.

    The alternating sum is divided by (q)_oo in place, by one pass of Euler's
    pentagonal recurrence; 1/(q)_oo itself is never built.
    """
    num = alternating_sum_series(label.p, label.p_prime, label.r, label.s, order)
    out = list(num.coeffs)
    _divide_poch_inf(out)
    return QSeries(order, tuple(out))


def b_matrix(t2: int) -> list[list[int]]:
    """The (2t-3)x(2t-3) matrix with entries (i-1)j for i <= j, i,j in 2..2t-2.

    It is the inverse of the type-A Cartan matrix of that size.
    """
    if t2 < 4:
        raise ValueError(f"need T = 2t >= 4, got {t2}")
    size = t2 - 3
    idx = [d + 2 for d in range(size)]
    return [[(min(i, j) - 1) * max(i, j) for j in idx] for i in idx]


def m_vector(t2: int, n: tuple[int, ...]) -> list[int]:
    """m_d = sum_{k=d+1..2t-2} n_k (k - d) for d = 1..2t-3: the maximal move
    counts per charge of a sector, and the fermionic-term arguments.

    Computed by suffix sums: m_d = m_{d+1} + sum_{k>d} n_k.
    """
    size = t2 - 3
    if len(n) != size:
        raise ValueError(f"occupation vector must have length {size}, got {len(n)}")
    out = [0] * size
    m = tail = 0
    for d in range(size, 0, -1):
        tail += n[d - 1]  # n_{d+1}
        m += tail
        out[d - 1] = m
    return out


def _top_charge(t2: int, order: int) -> int:
    """The highest charge a walk over vectors within order need visit.

    One particle of charge c alone has exponent B_cc/2 = c(c-1)/2, and B >= 0
    entrywise, so charges above this one are empty in every such vector.
    """
    if t2 < 4:
        raise ValueError(f"need T = 2t >= 4, got {t2}")
    top = 2
    while top < t2 - 2 and (top + 1) * top // 2 <= order:
        top += 1
    return top


def occupation_vectors(t2: int, order: int):
    """Every occupation vector n (counts of doubled charges 2..T-2) whose
    exponent e = n.B.n/2 is at most order, as (n, e), in lexicographic order.

    A plain fill of the charges 2..`_top_charge` in turn, each count from 0
    up while the exponent of the prefix stays within order: a prefix over
    order stays over, since B >= 0 entrywise.  Each level carries the
    prefix's exponent and its tilt, sum (c - 1) n_c, since one more particle
    of charge c adds c(c-1)/2 (2 n_c + 1) on its own and c times the tilt
    of the charges below it (B_ic = (i - 1) c for i < c).  The charges past
    the top stay empty; the fill is top - 1 levels deep, about sqrt(2N).
    """
    top = _top_charge(t2, order)
    zeros = (0,) * (t2 - 2 - top)

    def fill(c: int, vec: tuple[int, ...], e: int, tilt: int):
        if c > top:
            yield vec + zeros, e
            return
        n = 0
        while e <= order:
            yield from fill(c + 1, vec + (n,), e, tilt + (c - 1) * n)
            e += c * (c - 1) // 2 * (2 * n + 1) + c * tilt
            n += 1

    yield from fill(2, (), 0, 0)


def _check_order(order: int) -> None:
    # checked before a walk starts: [1] + [0] * order is [1] for a negative order
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")


def fermionic_character_12(t2: int, order: int) -> QSeries:
    """The positive-sum form of the (r,s)=(1,2) character for T = 2t >= 4.

    For even T this equals the bosonic series of (t, 2t+1, 1, 2); for odd T,
    of (t+1/2, 2t, 1, 2).  The occupation-vector sum is restricted to the
    finitely many vectors whose quadratic-form exponent stays within order;
    the others vanish modulo q^(order+1).  The sum is `_walk` over every
    vector.
    """
    return _walk(t2, order, None)


def _walk(t2: int, order: int, fixed: tuple[int, ...] | None) -> QSeries:
    """sum q^(n.B.n/2) (q)_{m_1}^-1 prod_{j=2..T-3} [n_j + m_j, n_j]_q over
    the occupation vectors n within order, or over the one vector `fixed`,
    whose exponent must be within order.

    The walk fixes n_c level by level from the top charge down to charge 2,
    so that m_c = sum_{k>c} n_k (k - c) and tail = sum_{k>c} n_k are known
    on entering level c; with `fixed`, a level keeps only its n_c.
    Histories that agree on (m_c, tail) are merged by `qseries._merge`:
    sum_{k>c} k n_k = m_c + c tail, so (c, m_c, tail) fixes the exponent
    step of every particle added from level c down (B_ij = (min - 1) max),
    every binomial [n_j + m_j, n_j] below c, and m_1.  A state carries its
    least exponent e0 and one list, the sum of q^(e - e0) prod_{k>c} [n_k +
    m_k, n_k] over its histories, cut at q^(order - e0).  Raising n_c by one
    multiplies the list by (1 - q^(m_c + n_c + 1)) / (1 - q^(n_c + 1)), no
    pass at all when m_c = 0, since [n, n] = 1; the exponent only grows
    (B >= 0 entrywise), so the list is cut first.  At charge 2 each state is
    merged under its M = m_1 alone.  The leaves are summed with their
    1/(q)_M by one Horner sweep from the largest M down, each M's sum
    divided by (1 - q^M) and merged into M - 1, so each value of m_1 costs
    one pass, not every vector that has it, and the passes run only over
    the lists' lengths.
    """
    top = _top_charge(t2, order)
    _check_order(order)
    level = {(0, 0): (0, [1] + [0] * order)}  # (m_c, tail) -> (e0, list)
    for c in range(top, 1, -1):
        lo, hi = (0, None) if fixed is None else (fixed[c - 2],) * 2
        below: dict = {}
        diag = c * (c - 1) // 2  # B_cc / 2
        for (m_c, tail), (e, poly) in level.items():
            cross = (c - 1) * (m_c + c * tail)  # a particle's terms with charges > c
            n = 0
            while True:
                if n >= lo:
                    m = m_c + tail + n  # m_{c-1} = m_c + sum_{k>=c} n_k
                    _merge(below, (m, tail + n) if c > 2 else m, e, poly[:])
                if n == hi:
                    break
                e += diag * (2 * n + 1) + cross
                if e > order:
                    break
                del poly[order - e + 1:]
                if m_c:
                    _times_one_minus(poly, m_c + n + 1)
                    _divide_one_minus(poly, n + 1)
                n += 1
        level = below
    for m in range(max(level), 0, -1):
        e, acc = level.pop(m)
        _divide_one_minus(acc, m)
        _merge(level, m - 1, e, acc)
    e, acc = level[0]
    return QSeries(order, (0,) * e + tuple(acc))


def theorem1_label(t2: int, a_hat: int, b_hat: int) -> CharacterLabel:
    """Character label matched to the half-lattice path space H^t_{a,b}: the
    character (p, p', r, a) of the RSOS label (p, p', a, b) that
    `halfpath.rsos_label` pairs with (T, 2a, 2b), r the index of its tail
    band b, where (2a, 2b) must lie in the range `halfpath.theorem1_domain`
    admits.
    """
    if not theorem1_domain(t2, 2 * a_hat, 2 * b_hat):
        raise InvalidLabelError(
            f"(a,b)=({a_hat},{b_hat}) out of the admissible range for T={t2}"
        )
    p, pp, a, b = rsos_label(t2, 2 * a_hat, 2 * b_hat)
    return CharacterLabel(p, pp, tail_band_index(p, pp, b), a)


@dataclass(frozen=True)
class SymmetryReport:
    label: CharacterLabel
    order: int
    ok: bool
    failed_identity: str | None = None
    mismatch_power: int | None = None
    # the coefficients of the two alternating sums (numerators) at that power
    lhs_coeff: int | None = None
    rhs_coeff: int | None = None


def verify_symmetries(label: CharacterLabel, order: int) -> SymmetryReport:
    """Check (r,s) -> (p-r, p'-s) and the (p,r) <-> (p',s) swap, coefficientwise.

    The three characters share the divisor (q)_oo, and dividing by it is an
    invertible triangular map, so the alternating sums are compared as they
    stand: they first differ where the characters first differ.
    """
    p, pp, r, s = label.p, label.p_prime, label.r, label.s
    lhs = alternating_sum_series(p, pp, r, s, order).coeffs
    for name, args in (("index-reflection", (p, pp, p - r, pp - s)),
                       ("modulus-swap", (pp, p, s, r))):
        rhs = alternating_sum_series(*args, order).coeffs
        k = next((k for k in range(order + 1) if lhs[k] != rhs[k]), None)
        if k is not None:
            return SymmetryReport(label, order, False, name, k, lhs[k], rhs[k])
    return SymmetryReport(label, order, True)


# -- classic closed-form sums used as independent cross-checks --------------


def _row_walk(order: int, exponent, row_step, base_step=None) -> QSeries:
    """sum over n2, n1 >= 0 of q^exponent(n1, n2) T(n1, n2), cut at q^order.

    T(0, 0) = 1.  The base T(0, n2) of each row is T(0, n2 - 1) over (1 - q^k)
    for each k of base_step(n2); along a row, T(n1, n2) is T(n1 - 1, n2)
    times (1 - q^k) for each k of row_step(n1, n2)[0] and over (1 - q^k) for
    each k of row_step(n1, n2)[1].  A form without base_step has the one row
    n2 = 0.  The exponent must grow along rows and columns, so a row ends at
    the first n1 past order, the walk at the first row whose base is past
    it, and every list is cut at q^(order - e) before its passes.
    """
    _check_order(order)
    acc = [0] * (order + 1)
    base = [1] + [0] * order
    for n2 in count() if base_step else (0,):
        if (e := exponent(0, n2)) > order:
            break
        del base[order - e + 1:]
        for k in base_step(n2) if n2 else ():
            _divide_one_minus(base, k)
        term = base[:]
        for n1 in count(1):
            acc[e:] = map(add, acc[e:], term)
            if (e := exponent(n1, n2)) > order:
                break
            del term[order - e + 1:]
            times, over = row_step(n1, n2)
            for k in times:
                _times_one_minus(term, k)
            for k in over:
                _divide_one_minus(term, k)
    return QSeries(order, tuple(acc))


def fermionic_sum_2_5(order: int) -> QSeries:
    """sum_n q^(n^2) / (q)_n, the Rogers-Ramanujan sum side for M(2,5): one
    row, each term its predecessor over (1 - q^n).
    """
    return _row_walk(order, lambda n1, n2: n1 * n1, lambda n1, n2: ((), (n1,)))


def fermionic_sum_3_7(order: int) -> QSeries:
    """sum q^((n1+n2)^2 + 2 n2^2) / ((q)_{n1} (q)_{2 n2}) for M(3,7).

    Row n2 starts from 1/(q)_{2 n2}, and each term of a row is its
    predecessor over (1 - q^n1).
    """
    return _row_walk(order, lambda n1, n2: (n1 + n2) ** 2 + 2 * n2 * n2,
                     lambda n1, n2: ((), (n1,)), lambda n2: (2 * n2 - 1, 2 * n2))


def fermionic_sum_4_7(order: int) -> QSeries:
    """sum q^((n1+2n2)^2 + 2 n2^2) [n1+2n2, n1]_q / (q)_{2n1+4n2} for M(4,7).

    Row n2 starts from 1/(q)_{4 n2}.  Along a row, raising n1 multiplies
    the binomial by (1 - q^(n1 + 2 n2)) / (1 - q^n1), no pass when n2 = 0,
    since [n1, n1] = 1, and divides by (1 - q^(2 n1 + 4 n2 - 1)) (1 - q^(2 n1
    + 4 n2)).
    """
    def row_step(n1, n2):
        over = (2 * n1 + 4 * n2 - 1, 2 * n1 + 4 * n2)
        return ((n1 + 2 * n2,), (n1, *over)) if n2 else ((), over)

    return _row_walk(order, lambda n1, n2: (n1 + 2 * n2) ** 2 + 2 * n2 * n2, row_step,
                     lambda n2: range(4 * n2 - 3, 4 * n2 + 1))
