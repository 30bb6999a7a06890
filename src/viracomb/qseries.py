"""Exact truncated power series in q with integer coefficients.

A :class:`QSeries` holds the coefficients c_0..c_N of a series known
through q^N.  Coefficients are Python ints, so arithmetic is exact at any
size.  Operations between series of different orders truncate to the
smaller order: a result never claims more precision than its inputs
support.

On top of the ring arithmetic this module provides the standard q-objects
used by character formulas: finite Pochhammer symbols (q)_n, the partition
generating function 1/(q)_oo, Gaussian (q-binomial) coefficients, and
modular products prod 1/(1-q^k) over residue classes.

Products of factors (1 - q^k) and their inverses never multiply whole
series: one coefficient list is multiplied or divided by each factor in
place, an O(N) pass through q^N, so (q)_n, [m, n]_q, the modular products
and the fermionic terms of :mod:`viracomb.characters` cost O(N) per factor
and keep no cache.  Division by (q)_oo is one in-place pass of Euler's
pentagonal recurrence, O(N^1.5), so a numerator is divided directly rather
than built into 1/(q)_oo first and then multiplied by it.  The term lists
of the fermionic walk, which carry an exponent offset, are added by one
merge, `_merge`; the path search merges its count lists inline, on its
grain.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Iterable


class NonUnitConstantTermError(ValueError):
    """Raised when inverting a series whose constant term is not +1 or -1."""


@dataclass(frozen=True)
class QSeries:
    """A q-series truncated after q^order, with exact integer coefficients."""

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError(f"order must be nonnegative, got {self.order}")
        if len(self.coeffs) != self.order + 1:
            raise ValueError(
                f"expected {self.order + 1} coefficients, got {len(self.coeffs)}"
            )

    @staticmethod
    def from_coeffs(coeffs: Iterable[int], order: int | None = None) -> QSeries:
        """Build a series from coefficients, padding with zeros or truncating."""
        cs = [int(c) for c in coeffs]
        if order is None:
            order = max(len(cs) - 1, 0)
        if not cs:
            cs = [0]
        if len(cs) <= order:
            cs.extend([0] * (order + 1 - len(cs)))
        return QSeries(order, tuple(cs[: order + 1]))

    @staticmethod
    def zero(order: int) -> QSeries:
        return QSeries(order, (0,) * (order + 1))

    @staticmethod
    def one(order: int) -> QSeries:
        return QSeries(order, (1,) + (0,) * order)

    def truncate(self, order: int) -> QSeries:
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        if order == self.order:
            return self
        return QSeries(order, self.coeffs[: order + 1])

    # -- ring operations (mixed orders truncate to the smaller one) --------

    def __add__(self, other: QSeries) -> QSeries:
        n = min(self.order, other.order)
        return QSeries(n, tuple([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)]))

    def __sub__(self, other: QSeries) -> QSeries:
        n = min(self.order, other.order)
        return QSeries(n, tuple([self.coeffs[i] - other.coeffs[i] for i in range(n + 1)]))

    def __neg__(self) -> QSeries:
        return QSeries(self.order, tuple([-c for c in self.coeffs]))

    def __mul__(self, other: QSeries) -> QSeries:
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = [0] * (n + 1)
        for i in range(n + 1):
            ai = a[i]
            if ai:
                for j in range(n + 1 - i):
                    out[i + j] += ai * b[j]
        return QSeries(n, tuple(out))

    def invert(self) -> QSeries:
        """Multiplicative inverse through q^order.

        Requires constant term +1 or -1 so the inverse has integer
        coefficients; uses the triangular recurrence
        b_n = -c_0 * sum_{k=1..n} c_k b_{n-k}.
        """
        c0 = self.coeffs[0]
        if c0 not in (1, -1):
            raise NonUnitConstantTermError(
                f"constant term must be +1 or -1 to invert, got {c0}"
            )
        n = self.order
        out = [0] * (n + 1)
        out[0] = c0  # inverse of +/-1 is itself
        for k in range(1, n + 1):
            acc = 0
            for i in range(1, k + 1):
                ci = self.coeffs[i]
                if ci:
                    acc += ci * out[k - i]
            out[k] = -c0 * acc
        return QSeries(n, tuple(out))

    # -- text formats -------------------------------------------------------

    def to_csv(self) -> str:
        """One line `c0,c1,...,cN`."""
        return ",".join(str(c) for c in self.coeffs)

    def to_pretty(self) -> str:
        """Human form `1 + q + 2*q^2 + ...`."""
        terms = []
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if n == 0:
                body = str(mag)
            elif n == 1:
                body = "q" if mag == 1 else f"{mag}*q"
            else:
                body = f"q^{n}" if mag == 1 else f"{mag}*q^{n}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms) if terms else "0"


def _times_one_minus(out: list[int], k: int) -> None:
    """out *= (1 - q^k) in place, through q^(len(out) - 1)."""
    for j in range(len(out) - 1, k - 1, -1):
        out[j] -= out[j - k]


def _divide_one_minus(out: list[int], k: int) -> None:
    """out /= (1 - q^k) in place, through q^(len(out) - 1)."""
    for j in range(k, len(out)):
        out[j] += out[j - k]


def _merge(states: dict, key, e: int, poly: list[int]) -> None:
    """Add q^e poly into states[key], kept as (least exponent e0, list): the
    lists are aligned by their offsets and added, and the kept one is padded
    when poly runs past it.  poly is kept or added, never copied, so the
    caller must not touch it again.  An empty list carries no terms: states
    that only track their least exponent merge empty lists and stay empty.
    """
    old = states.get(key)
    if old is None:
        states[key] = (e, poly)
        return
    e0, acc = old
    if e < e0:
        e0, acc, e, poly = e, poly, e0, acc
        states[key] = (e0, acc)
    d = e - e0
    n = d + len(poly)
    if n > len(acc) and poly:
        acc += [0] * (n - len(acc))
    acc[d:n] = map(add, acc[d:n], poly)


def _factor_product(up: Iterable[int], down: Iterable[int], order: int) -> QSeries:
    """prod_{u in up} (1 - q^u) / prod_{d in down} (1 - q^d), truncated.

    Exponents must be positive.  Each factor is one O(order) in-place pass,
    and the passes commute, since truncation respects products.
    """
    out = [1] + [0] * order
    for k in up:
        _times_one_minus(out, k)
    for k in down:
        _divide_one_minus(out, k)
    return QSeries(order, tuple(out))


def pochhammer_finite(n: int, order: int) -> QSeries:
    """(q)_n = prod_{i=1..n} (1 - q^i), truncated; (q)_0 = 1."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return _factor_product(range(1, min(n, order) + 1), (), order)


def _divide_poch_inf(out: list[int]) -> None:
    """out /= (q)_oo in place, through q^(len(out) - 1).

    Euler's pentagonal theorem gives (q)_oo = sum_k (-1)^k q^(k(3k-1)/2)
    over all integers k, so a quotient b of a numerator a obeys
    b_n = a_n + sum_{k>=1} (-1)^(k+1) (b_(n - k(3k-1)/2) + b_(n - k(3k+1)/2)).
    One ascending pass turns a into b, O(N^1.5) through q^N: only about
    sqrt(8N/3) generalized pentagonal numbers lie within N.
    """
    order = len(out) - 1
    plus, minus = [], []  # generalized pentagonal numbers by sign, increasing
    k = 1
    while k * (3 * k - 1) // 2 <= order:
        (plus if k % 2 else minus).extend((k * (3 * k - 1) // 2, k * (3 * k + 1) // 2))
        k += 1
    for n in range(1, order + 1):
        acc = out[n]
        for g in plus:
            if g > n:
                break
            acc += out[n - g]
        for g in minus:
            if g > n:
                break
            acc -= out[n - g]
        out[n] = acc


def pochhammer_inf_inverse(order: int) -> QSeries:
    """1/(q)_oo truncated; the coefficient of q^n is the partition count p(n).

    The pentagonal division `_divide_poch_inf` applied to the series 1, which
    is Euler's recurrence p(n) = sum_{k>=1} (-1)^(k+1)
    (p(n - k(3k-1)/2) + p(n - k(3k+1)/2)).
    """
    out = [1] + [0] * order
    _divide_poch_inf(out)
    return QSeries(order, tuple(out))


def q_binomial(m: int, n: int, order: int) -> QSeries:
    """Gaussian binomial (q)_m / ((q)_n (q)_{m-n}) for 0 <= n <= m, else 0.

    Built as prod_{i=1..n} (1 - q^(m-n+i)) / (1 - q^i) after n -> min(n, m-n).
    The result is a polynomial of degree n(m-n) with nonnegative integer
    coefficients, truncated to the requested order.
    """
    if not 0 <= n <= m:
        return QSeries.zero(order)
    n = min(n, m - n)
    return _factor_product(range(m - n + 1, min(m, order) + 1),
                           range(1, min(n, order) + 1), order)


def modular_product(modulus: int, residues: Iterable[int], order: int) -> QSeries:
    """prod_{k>=1, k mod modulus in residues} 1/(1 - q^k), truncated."""
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    rs = {int(r) for r in residues}
    if not rs:
        raise ValueError("residue set must be nonempty")
    bad = [r for r in rs if not 0 <= r < modulus]
    if bad:
        raise ValueError(f"residues out of range mod {modulus}: {sorted(bad)}")
    return _factor_product((), (k for k in range(1, order + 1) if k % modulus in rs), order)
