"""Minimal-model Virasoro character series.

The bosonic form evaluates the alternating lattice sum divided by
(q)_oo for a label (p, p', r, s).  The fermionic form for the (1,2)
entries of the M(p, 2p+1) / M(p, 2p-1) families sums manifestly positive
terms over particle occupation vectors, weighted by the quadratic form of
the inverse type-A Cartan matrix.  Half-integer moduli are avoided
throughout by carrying t doubled as an integer T = 2t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .qseries import QSeries, _factor_product, pochhammer_inf_inverse


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
    can evaluate formally swapped labels.
    """
    coeffs = [0] * (order + 1)

    def add_terms(lam: int) -> bool:
        e1 = lam * lam * p * pp + lam * (pp * r - p * s)
        e2 = (lam * p + r) * (lam * pp + s)
        hit = False
        if 0 <= e1 <= order:
            coeffs[e1] += 1
            hit = True
        if 0 <= e2 <= order:
            coeffs[e2] -= 1
            hit = True
        return hit

    # Both exponents are quadratic in the index with positive leading
    # coefficient, so two consecutive misses on a side mean that side is done.
    for direction in (1, -1):
        lam = 0 if direction == 1 else -1
        misses = 0
        while misses < 2:
            if add_terms(lam):
                misses = 0
            else:
                misses += 1
            lam += direction
    return QSeries(order, tuple(coeffs))


def bosonic_character(label: CharacterLabel, order: int) -> QSeries:
    """Character series for the given label, truncated to the given order."""
    num = alternating_sum_series(label.p, label.p_prime, label.r, label.s, order)
    return num * pochhammer_inf_inverse(order)


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


def occupation_vectors(t2: int, order: int):
    """Every occupation vector n (counts of doubled charges 2..T-2) whose
    exponent e = n.B.n/2 is at most order, as (n, e), in lexicographic order.
    """
    bmat = b_matrix(t2)
    size = t2 - 3
    vec = [0] * size

    def descend(pos: int, expo2: int):
        # expo2 carries n.B.n for the filled prefix
        if pos == size:
            yield tuple(vec), expo2 // 2
            return
        k = 0
        while True:
            # incremental quadratic form: diagonal plus twice the cross terms
            add = bmat[pos][pos] * k * k
            for i in range(pos):
                add += 2 * bmat[i][pos] * vec[i] * k
            if expo2 + add > 2 * order:
                break
            vec[pos] = k
            yield from descend(pos + 1, expo2 + add)
            vec[pos] = 0
            k += 1

    yield from descend(0, 0)


def _fermionic_term(t2: int, n: tuple[int, ...], order: int) -> QSeries:
    """(q)_{m_1}^-1 prod_{j=2..T-3} [n_j + m_j, n_j]_q for occupation vector n.

    Built by factor passes on one coefficient list: divide by (1 - q^i) for
    i <= m_1; for each j and i <= n_j, multiply by (1 - q^(m_j + i)) and
    divide by (1 - q^i).  Each factor is one O(order) pass, and passes with
    exponents past order are empty.
    """
    ms = m_vector(t2, n)
    up, down = [], list(range(1, ms[0] + 1))
    for j in range(2, t2 - 2):
        nj, mj = n[j - 2], ms[j - 1]
        up += range(mj + 1, mj + nj + 1)
        down += range(1, nj + 1)
    return _factor_product(up, down, order)


def _shifted_sum(terms, order: int) -> QSeries:
    """sum q^e * term over the (e, term) pairs, through q^order; each term
    need only be known through q^(order - e).
    """
    coeffs = [0] * (order + 1)
    for e, term in terms:
        for k, c in enumerate(term.coeffs):
            coeffs[e + k] += c
    return QSeries(order, tuple(coeffs))


def fermionic_character_12(t2: int, order: int) -> QSeries:
    """The positive-sum form of the (r,s)=(1,2) character for T = 2t >= 4.

    For even T this equals the bosonic series of (t, 2t+1, 1, 2); for odd T,
    of (t+1/2, 2t, 1, 2).  The occupation-vector sum is restricted to the
    finitely many vectors whose quadratic-form exponent stays within order;
    the others vanish modulo q^(order+1).
    """
    return _shifted_sum(((e, _fermionic_term(t2, n, order - e))
                         for n, e in occupation_vectors(t2, order)), order)


def theorem1_label(t2: int, a_hat: int, b_hat: int) -> CharacterLabel:
    """Character label matched to the half-lattice path space H^t_{a,b}.

    Even T = 2t: (t, 2t+1, b, 2a) with 1 <= a <= t, 1 <= b <= t-1.
    Odd T:       (t+1/2, 2t, a, 2b) = ((T+1)/2, T, a, 2b) with a, b <= (T-1)/2.
    """
    if t2 < 4:
        raise InvalidLabelError(f"need T = 2t >= 4, got {t2}")
    if t2 % 2 == 0:
        t = t2 // 2
        if not (1 <= a_hat <= t and 1 <= b_hat <= t - 1):
            raise InvalidLabelError(
                f"need 1 <= a <= {t} and 1 <= b <= {t - 1}, got a={a_hat}, b={b_hat}"
            )
        return CharacterLabel(t, 2 * t + 1, b_hat, 2 * a_hat)
    half = (t2 - 1) // 2
    if not (1 <= a_hat <= half and 1 <= b_hat <= half):
        raise InvalidLabelError(
            f"need 1 <= a, b <= {half}, got a={a_hat}, b={b_hat}"
        )
    return CharacterLabel((t2 + 1) // 2, t2, a_hat, 2 * b_hat)


@dataclass(frozen=True)
class SymmetryReport:
    label: CharacterLabel
    order: int
    ok: bool
    failed_identity: str | None = None
    mismatch_power: int | None = None
    lhs_coeff: int | None = None
    rhs_coeff: int | None = None


def verify_symmetries(label: CharacterLabel, order: int) -> SymmetryReport:
    """Check (r,s) -> (p-r, p'-s) and the (p,r) <-> (p',s) swap, coefficientwise."""
    p, pp, r, s = label.p, label.p_prime, label.r, label.s
    lhs = bosonic_character(label, order)
    checks = [
        ("index-reflection", alternating_sum_series(p, pp, p - r, pp - s, order)),
        ("modulus-swap", alternating_sum_series(pp, p, s, r, order)),
    ]
    inv = pochhammer_inf_inverse(order)
    for name, num in checks:
        rhs = num * inv
        for k in range(order + 1):
            if lhs.coeffs[k] != rhs.coeffs[k]:
                return SymmetryReport(label, order, False, name, k,
                                      lhs.coeffs[k], rhs.coeffs[k])
    return SymmetryReport(label, order, True)


# -- classic closed-form sums used as independent cross-checks --------------


def fermionic_sum_2_5(order: int) -> QSeries:
    """sum_n q^(n^2) / (q)_n, the Rogers-Ramanujan sum side for M(2,5)."""
    def terms():
        n = 0
        while n * n <= order:
            yield n * n, _factor_product((), range(1, n + 1), order - n * n)
            n += 1

    return _shifted_sum(terms(), order)


def fermionic_sum_3_7(order: int) -> QSeries:
    """sum q^((n1+n2)^2 + 2 n2^2) / ((q)_{n1} (q)_{2 n2}) for M(3,7)."""
    def terms():
        n2 = 0
        while 2 * n2 * n2 <= order:
            n1 = 0
            while (e := (n1 + n2) ** 2 + 2 * n2 * n2) <= order:
                yield e, _factor_product((), [*range(1, n1 + 1), *range(1, 2 * n2 + 1)],
                                        order - e)
                n1 += 1
            n2 += 1

    return _shifted_sum(terms(), order)


def fermionic_sum_4_7(order: int) -> QSeries:
    """sum q^((n1+2n2)^2 + 2 n2^2) [n1+2n2, n1]_q / (q)_{2n1+4n2} for M(4,7)."""
    def terms():
        n2 = 0
        while 6 * n2 * n2 <= order:
            n1 = 0
            while (e := (n1 + 2 * n2) ** 2 + 2 * n2 * n2) <= order:
                yield e, _factor_product(
                    range(2 * n2 + 1, 2 * n2 + n1 + 1),  # [n1 + 2 n2, n1]_q over (q)_{n1}
                    [*range(1, n1 + 1), *range(1, 2 * n1 + 4 * n2 + 1)],
                    order - e,
                )
                n1 += 1
            n2 += 1

    return _shifted_sum(terms(), order)
