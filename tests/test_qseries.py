import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viracomb.characters import CharacterLabel, alternating_sum_series, bosonic_character
from viracomb.qseries import (
    NonUnitConstantTermError,
    QSeries,
    _divide_one_minus,
    _divide_packed,
    _divide_poch_inf,
    _merge_packed,
    _times_one_minus,
    _times_packed,
    _unpack,
    _width,
    modular_product,
    pochhammer_finite,
    pochhammer_inf_inverse,
    q_binomial,
)


def brute_partitions(n, max_part=None):
    """Yield every partition of n, largest part first."""
    if n == 0:
        yield ()
        return
    if max_part is None:
        max_part = n
    for first in range(min(n, max_part), 0, -1):
        for rest in brute_partitions(n - first, first):
            yield (first,) + rest


def brute_box_partitions(rows, cols):
    """Count partitions by size that fit in a rows x cols box."""
    counts = [0] * (rows * cols + 1)
    for n in range(rows * cols + 1):
        for lam in brute_partitions(n):
            if len(lam) <= rows and all(x <= cols for x in lam):
                counts[n] += 1
    return counts


def brute_residue_partitions(n, modulus, residues):
    allowed = [k for k in range(1, n + 1) if k % modulus in residues]

    def count(m, idx):
        if m == 0:
            return 1
        total = 0
        for i in range(idx, len(allowed)):
            if allowed[i] > m:
                break
            total += count(m - allowed[i], i)
        return total

    return count(n, 0)


def test_mul_difference_of_squares():
    a = QSeries.from_coeffs([1, 1], 5)
    b = QSeries.from_coeffs([1, -1], 5)
    assert (a * b).coeffs == (1, 0, -1, 0, 0, 0)


def test_add_identity():
    s = QSeries.from_coeffs([3, 1, 4, 1, 5], 4)
    assert QSeries.zero(4) + s == s


def test_mul_hand_convolution():
    a = QSeries.from_coeffs([1, 1, 1], 3)
    b = QSeries.from_coeffs([1, 1], 3)
    assert (a * b).coeffs == (1, 2, 2, 1)


def test_mixed_order_truncates():
    a = QSeries.from_coeffs([1, 1], 10)
    b = QSeries.from_coeffs([1, 1], 3)
    assert (a + b).order == 3
    assert (a * b).order == 3


def test_invert_geometric():
    s = QSeries.from_coeffs([1, -1], 4)
    assert s.invert().coeffs == (1, 1, 1, 1, 1)


def test_invert_identity():
    assert QSeries.one(7).invert() == QSeries.one(7)


def test_invert_poch2_counts_bounded_partitions():
    # partitions into parts of size at most 2
    assert pochhammer_finite(2, 4).invert().coeffs == (1, 1, 2, 2, 3)


def test_invert_rejects_non_unit():
    with pytest.raises(NonUnitConstantTermError):
        QSeries.from_coeffs([2, 1], 3).invert()


def test_pochhammer_zero_is_one():
    assert pochhammer_finite(0, 5) == QSeries.one(5)


def test_pochhammer_one():
    assert pochhammer_finite(1, 3).coeffs == (1, -1, 0, 0)


def test_pochhammer_three():
    assert pochhammer_finite(3, 6).coeffs == (1, -1, -1, 0, 1, 1, -1)


def test_partition_gf_small():
    assert pochhammer_inf_inverse(6).coeffs == (1, 1, 2, 3, 5, 7, 11)


def test_partition_gf_against_enumeration():
    series = pochhammer_inf_inverse(40)
    for n in range(41):
        assert series.coeffs[n] == sum(1 for _ in brute_partitions(n))


def test_partition_gf_is_definitional_inverse():
    for n in (12, 300):
        prod = pochhammer_inf_inverse(n) * pochhammer_finite(n, n)
        assert prod == QSeries.one(n)


def test_qbinomial_box():
    assert q_binomial(4, 2, 4).coeffs == (1, 1, 2, 1, 1)


def test_qbinomial_out_of_range_is_zero():
    assert q_binomial(3, 5, 6) == QSeries.zero(6)
    assert q_binomial(3, -1, 6) == QSeries.zero(6)


def test_qbinomial_empty_box():
    assert q_binomial(5, 5, 3) == QSeries.one(3)


def test_qbinomial_large_m_needs_no_recursion():
    assert q_binomial(1500, 3, 10).coeffs == (1, 1, 2, 3, 4, 5, 7, 8, 10, 12, 14)


@pytest.mark.parametrize("m,n", [(4, 2), (6, 3), (7, 2), (9, 4)])
def test_qbinomial_counts_box_partitions(m, n):
    deg = n * (m - n)
    expect = brute_box_partitions(n, m - n)
    assert q_binomial(m, n, deg).coeffs == tuple(expect)


def test_qbinomial_symmetry_and_positivity():
    for m in range(0, 21):
        for n in range(0, m + 1):
            deg = max(n * (m - n), 1)
            lhs = q_binomial(m, n, deg)
            assert lhs == q_binomial(m, m - n, deg)
            assert all(c >= 0 for c in lhs.coeffs)
            if n * (m - n) > 0:
                assert lhs.coeffs[n * (m - n)] == 1


def test_modular_product_rogers_ramanujan():
    series = modular_product(5, {1, 4}, 8)
    assert series.coeffs == (1, 1, 1, 1, 2, 2, 3, 3, 4)
    for n in range(9):
        assert series.coeffs[n] == brute_residue_partitions(n, 5, {1, 4})


def test_modular_product_trivial_order():
    assert modular_product(5, {1, 4}, 0) == QSeries.one(0)


def test_modular_product_validation():
    with pytest.raises(ValueError):
        modular_product(5, set(), 4)
    with pytest.raises(ValueError):
        modular_product(5, {7}, 4)


def test_csv_and_pretty():
    s = QSeries.from_coeffs([1, 0, 2, -1], 3)
    assert s.to_csv() == "1,0,2,-1"
    assert s.to_pretty() == "1 + 2*q^2 - q^3"
    assert QSeries.zero(2).to_pretty() == "0"


# -- ring axioms --------------------------------------------------------------

small_series = st.builds(
    QSeries.from_coeffs,
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=9),
    st.just(8),
)


@settings(max_examples=250)
@given(small_series, small_series, small_series)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=250)
@given(small_series)
def test_additive_inverse(a):
    assert a - a == QSeries.zero(a.order)
    assert a + (-a) == QSeries.zero(a.order)


def test_randomized_inversion_roundtrip():
    rng = random.Random(20260810)
    for _ in range(1000):
        order = rng.randrange(1, 12)
        coeffs = [rng.choice([1, -1])] + [rng.randrange(-6, 7) for _ in range(order)]
        s = QSeries.from_coeffs(coeffs, order)
        assert s * s.invert() == QSeries.one(order)


def test_bosonic_matches_ring_product():
    # the in-place pentagonal division against a schoolbook product
    for pp in range(3, 14):
        for p in range(2, pp):
            if math.gcd(p, pp) != 1:
                continue
            for r in range(1, p):
                for s in range(1, pp):
                    for order in (0, 1, 7, 60):
                        expect = (alternating_sum_series(p, pp, r, s, order)
                                  * pochhammer_inf_inverse(order))
                        got = bosonic_character(CharacterLabel(p, pp, r, s), order)
                        assert got == expect, (p, pp, r, s, order)


def test_divide_poch_inf_round_trip():
    # (q)_N agrees with (q)_oo through q^N, so dividing undoes the product
    rng = random.Random(20261018)
    for _ in range(300):
        order = rng.randrange(0, 40)
        s = QSeries.from_coeffs([rng.randrange(-9, 10) for _ in range(order + 1)], order)
        out = list((s * pochhammer_finite(order, order)).coeffs)
        _divide_poch_inf(out)
        assert out == list(s.coeffs)


def _pack(coeffs, w=8):
    return sum(c << j * w for j, c in enumerate(coeffs))


def test_packed_merge_aligns_offsets_and_adds():
    states = {}
    _merge_packed(states, "a", 3, _pack([1, 2]), 3, 8)  # a new key keeps the int as given
    assert states == {"a": (3, _pack([1, 2]), 3)}
    _merge_packed(states, "a", 4, _pack([5]), 5, 8)  # a higher exponent adds at its offset
    assert states == {"a": (3, _pack([1, 7]), 8)}
    _merge_packed(states, "a", 1, _pack([1, 1, 1, 1]), 4, 8)  # a lower one takes the key over
    assert states == {"a": (1, _pack([1, 1, 2, 8]), 12)}
    # one that runs past the kept int extends it
    _merge_packed(states, "a", 3, _pack([1, 1, 1, 1]), 4, 8)
    assert states == {"a": (1, _pack([1, 1, 3, 9, 1, 1]), 16)}
    _merge_packed(states, "b", 0, _pack([1]), 1, 16)
    _merge_packed(states, "b", 3, _pack([2, 2], 16), 4, 16)  # past the end with a gap
    assert states["b"][0] == 0 and _unpack(states["b"][1], 16, 6) == (1, 0, 0, 2, 2, 0)
    assert states["a"] == (1, _pack([1, 1, 3, 9, 1, 1]), 16)


def test_packed_passes_match_list_passes():
    # packed products and quotients by (1 - q^k) are the list passes' results
    # packed, modulo 2^(n w) (a negative coefficient borrows from the next),
    # and a quotient undoes a product
    rng = random.Random(20261022)
    for _ in range(400):
        n, k, w = rng.randrange(1, 90), rng.randrange(1, 95), rng.randrange(14, 70)
        cs = [rng.randrange(0, 100) for _ in range(n)]
        x, mask = _pack(cs, w), (1 << n * w) - 1
        times, over = cs[:], cs[:]
        _times_one_minus(times, k)
        _divide_one_minus(over, k)
        assert _times_packed(x, k * w, mask) == _pack(times, w) & mask
        assert _unpack(_divide_packed(x, k * w, mask), w, n) == tuple(over)
        assert _divide_packed(_times_packed(x, k * w, mask), k * w, mask) == x


def test_width_holds_the_partition_bound():
    # every coefficient through q^N of a series bounded by bound p(N) fits
    p = pochhammer_inf_inverse(600).coeffs
    for order in range(601):
        for bound in (0, 1, 2, 3, 255, 256, 10**9, 3**100):
            assert bound * p[order] < 1 << _width(bound, order), (order, bound)
