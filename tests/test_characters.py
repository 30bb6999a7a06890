import gc
import itertools
import math
import random
import tracemalloc

import pytest

from viracomb import characters
from viracomb.characters import (
    CharacterLabel,
    InvalidLabelError,
    alternating_sum_series,
    b_matrix,
    bosonic_character,
    fermionic_character_12,
    fermionic_sum_2_5,
    fermionic_sum_3_7,
    fermionic_sum_4_7,
    m_vector,
    occupation_vectors,
    theorem1_label,
    verify_symmetries,
)
from viracomb.halfpath import theorem1_domain
from viracomb.particles import sector_gf
from viracomb.qseries import (
    QSeries,
    _divide_poch_inf,
    modular_product,
    pochhammer_finite,
    pochhammer_inf_inverse,
    q_binomial,
)

from oracles import (
    fermionic_sum_2_5_reference,
    fermionic_sum_3_7_reference,
    fermionic_sum_4_7_reference,
    fermionic_term,
    theorem1_label_reference,
)


def all_labels(max_pp):
    for pp in range(3, max_pp + 1):
        for p in range(2, pp):
            if math.gcd(p, pp) != 1:
                continue
            for r in range(1, p):
                for s in range(1, pp):
                    yield CharacterLabel(p, pp, r, s)


def test_label_validation():
    with pytest.raises(InvalidLabelError):
        CharacterLabel(2, 4, 1, 1)  # not coprime
    with pytest.raises(InvalidLabelError):
        CharacterLabel(5, 3, 1, 1)  # p >= p'
    with pytest.raises(InvalidLabelError):
        CharacterLabel(3, 5, 3, 1)  # r out of range
    with pytest.raises(InvalidLabelError):
        CharacterLabel(3, 5, 1, 5)  # s out of range


def test_bosonic_rogers_ramanujan_product():
    lhs = bosonic_character(CharacterLabel(2, 5, 1, 2), 8)
    assert lhs == modular_product(5, {1, 4}, 8)


def test_bosonic_ising_like_product():
    lhs = bosonic_character(CharacterLabel(3, 4, 1, 3), 16)
    assert lhs == modular_product(16, {1, 4, 6, 7, 9, 10, 12, 15}, 16)


def test_constant_term_and_positivity():
    for label in all_labels(12):
        series = bosonic_character(label, 30)
        assert series.coeffs[0] == 1, label
        assert all(c >= 0 for c in series.coeffs), label


def test_fermionic_rejects_small_t2():
    # sector_gf reaches the same walk, and must refuse what it refuses
    with pytest.raises(ValueError):
        fermionic_character_12(3, 5)
    with pytest.raises(ValueError, match="need T = 2t >= 4, got 3"):
        sector_gf(3, (), 5)
    for walk in (lambda: fermionic_character_12(6, -1), lambda: sector_gf(6, (0, 0, 0), -1),
                 lambda: sector_gf(6, (1, 0, 1), -1)):
        with pytest.raises(ValueError, match="order must be nonnegative, got -1"):
            walk()


@pytest.mark.parametrize("t2", range(4, 11))
def test_fermionic_equals_bosonic(t2):
    lhs = fermionic_character_12(t2, 30)
    rhs = bosonic_character(theorem1_label(t2, 1, 1), 30)
    assert lhs == rhs


def test_fermionic_enumeration_bound_is_not_tight():
    # widening the per-coordinate window may not change the sum; checked by
    # comparing with an order bump that forces strictly more vectors through
    for t2 in (5, 7, 8):
        wide = fermionic_character_12(t2, 24).truncate(18)
        assert wide == fermionic_character_12(t2, 18)


def test_theorem1_label_values():
    assert theorem1_label(10, 2, 4) == CharacterLabel(5, 11, 4, 4)
    assert theorem1_label(7, 1, 3) == CharacterLabel(4, 7, 1, 6)
    assert theorem1_label(4, 1, 1) == CharacterLabel(2, 5, 1, 2)


def test_theorem1_label_matches_the_closed_formula():
    # every Theorem-1 label with T <= 40: the character of the RSOS label
    # `halfpath.rsos_label` pairs with is the closed formula
    labels = 0
    for t2 in range(4, 41):
        for a_hat, b_hat in itertools.product(range(1, t2 + 1), repeat=2):
            if theorem1_domain(t2, 2 * a_hat, 2 * b_hat):
                assert (theorem1_label(t2, a_hat, b_hat)
                        == theorem1_label_reference(t2, a_hat, b_hat)), (t2, a_hat, b_hat)
                labels += 1
    assert labels == sum((t2 // 2) * ((t2 - 1) // 2) for t2 in range(4, 41))


def test_theorem1_label_rejects_out_of_range():
    with pytest.raises(InvalidLabelError):
        theorem1_label(10, 6, 1)
    with pytest.raises(InvalidLabelError):
        theorem1_label(10, 1, 5)
    with pytest.raises(InvalidLabelError):
        theorem1_label(7, 4, 1)


def test_alternating_sum_matches_brute_force():
    # every label with p' <= 9, as given, reflected and swapped, against the
    # sum over every index |lam| <= order + 2, far past where terms can land
    def brute(p, pp, r, s, order):
        coeffs = [0] * (order + 1)
        for lam in range(-order - 2, order + 3):
            for e, sign in ((lam * lam * p * pp + lam * (pp * r - p * s), 1),
                            ((lam * p + r) * (lam * pp + s), -1)):
                if 0 <= e <= order:
                    coeffs[e] += sign
        return tuple(coeffs)

    for pp in range(3, 10):
        for p in range(2, pp):
            if math.gcd(p, pp) != 1:
                continue
            for r in range(1, p):
                for s in range(1, pp):
                    for args in ((p, pp, r, s), (p, pp, p - r, pp - s), (pp, p, s, r)):
                        for order in (0, 1, 5, p * pp - 1, p * pp, 40):
                            got = alternating_sum_series(*args, order).coeffs
                            assert got == brute(*args, order), (args, order)


def test_symmetries_pass():
    assert verify_symmetries(CharacterLabel(2, 5, 1, 2), 30).ok
    assert verify_symmetries(CharacterLabel(4, 9, 3, 8), 30).ok


@pytest.mark.parametrize("identity", ["index-reflection", "modulus-swap"])
@pytest.mark.parametrize("k", [0, 7, 30])
def test_symmetry_failure_names_first_mismatch(monkeypatch, identity, k):
    # perturb one side's alternating sum at q^k; the numerators are compared,
    # so the report must still name the first power where the characters differ
    p, pp, r, s = 4, 9, 3, 8
    side = (p, pp, p - r, pp - s) if identity == "index-reflection" else (pp, p, s, r)
    real = characters.alternating_sum_series

    def perturbed(*args):
        series = real(*args)
        if args[:4] != side:
            return series
        coeffs = list(series.coeffs)
        coeffs[k] += 1
        return QSeries(series.order, tuple(coeffs))

    monkeypatch.setattr(characters, "alternating_sum_series", perturbed)

    def character(*args):
        out = list(characters.alternating_sum_series(*args, 30).coeffs)
        _divide_poch_inf(out)
        return out

    lhs, rhs = character(p, pp, r, s), character(*side)
    first = next(j for j in range(31) if lhs[j] != rhs[j])
    rep = verify_symmetries(CharacterLabel(p, pp, r, s), 30)
    assert not rep.ok
    assert rep.failed_identity == identity
    assert rep.mismatch_power == k == first
    assert rep.rhs_coeff == rep.lhs_coeff + 1


def test_modulus_swap_directly():
    lhs = alternating_sum_series(3, 4, 1, 3, 30) * pochhammer_inf_inverse(30)
    rhs = alternating_sum_series(4, 3, 3, 1, 30) * pochhammer_inf_inverse(30)
    assert lhs == rhs


def test_closed_form_sums():
    # each term is built from its neighbour; the reference builds every term
    # alone, so a step taken once too often or cut too short shows at some order
    for form, reference, label in (
        (fermionic_sum_2_5, fermionic_sum_2_5_reference, CharacterLabel(2, 5, 1, 2)),
        (fermionic_sum_3_7, fermionic_sum_3_7_reference, CharacterLabel(3, 7, 1, 2)),
        (fermionic_sum_4_7, fermionic_sum_4_7_reference, CharacterLabel(4, 7, 1, 2)),
    ):
        for order in range(61):
            assert form(order) == reference(order), (label, order)
        assert form(150) == bosonic_character(label, 150), label
        with pytest.raises(ValueError, match="order must be nonnegative, got -1"):
            form(-1)


def test_b_matrix_inverts_modified_cartan():
    # B is (2t-2) times the inverse of the type-A Cartan matrix whose last
    # diagonal entry is lowered from 2 to (2t-3)/(2t-2); as an exact integer
    # identity: B . M = (2t-2) . I with M as below.
    for t2 in range(4, 11):
        size = t2 - 3
        bmat = b_matrix(t2)
        m = [
            [(t2 - 2) * (2 if i == j else -1 if abs(i - j) == 1 else 0)
             for j in range(size)]
            for i in range(size)
        ]
        m[size - 1][size - 1] = t2 - 3
        for i in range(size):
            for j in range(size):
                entry = sum(bmat[i][k] * m[k][j] for k in range(size))
                assert entry == ((t2 - 2) if i == j else 0)


def test_b_matrix_positive_definite():
    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        total = 0
        for j in range(len(mat)):
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * det(minor)
        return total

    for t2 in range(4, 11):
        bmat = b_matrix(t2)
        for lead in range(1, len(bmat) + 1):
            sub = [row[:lead] for row in bmat[:lead]]
            assert det(sub) > 0


def test_m_vector_examples():
    assert m_vector(4, (3,)) == [3]
    assert m_vector(10, (2, 1, 1, 1, 0, 1, 0)) == [17, 11, 7, 4, 2, 1, 0]
    assert m_vector(10, (0,) * 7) == [0] * 7


def test_m_vector_is_its_defining_sum():
    rng = random.Random(20261018)
    for _ in range(200):
        t2 = rng.randrange(4, 17)
        n = tuple(rng.randrange(0, 6) for _ in range(t2 - 3))
        expect = [sum(n[k - 2] * (k - d) for k in range(d + 1, t2 - 1))
                  for d in range(1, t2 - 2)]
        assert m_vector(t2, n) == expect


@pytest.mark.parametrize("t2", range(4, 11))
def test_fermionic_term_matches_ring_products(t2):
    # the reference builds each term from whole series with QSeries.__mul__
    order = 40
    for n, _ in occupation_vectors(t2, order):
        ms = m_vector(t2, n)
        expect = pochhammer_finite(ms[0], order).invert()
        for j in range(2, t2 - 2):
            expect = expect * q_binomial(n[j - 2] + ms[j - 1], n[j - 2], order)
        assert fermionic_term(t2, n, order) == expect, n


@pytest.mark.parametrize("t2", range(4, 15))
def test_fermionic_walk_matches_term_oracle(t2):
    # the walk against a sum of terms built one vector at a time
    for order in (0, 1, 2, 17, 60, 90):
        acc = [0] * (order + 1)
        for n, e in occupation_vectors(t2, order):
            for k, c in enumerate(fermionic_term(t2, n, order - e).coeffs):
                acc[e + k] += c
        assert fermionic_character_12(t2, order).coeffs == tuple(acc), order
    assert fermionic_character_12(t2, 150) == bosonic_character(theorem1_label(t2, 1, 1), 150)


def test_fermionic_walk_every_low_order():
    # a term filed under the wrong m_1, or a bucket left out of the sweep,
    # shows at some order even where orders 60 and 90 happen to agree
    top = 40
    for t2 in range(4, 17):
        acc = [0] * (top + 1)
        for n, e in occupation_vectors(t2, top):
            for k, c in enumerate(fermionic_term(t2, n, top - e).coeffs):
                acc[e + k] += c
        for order in range(top + 1):
            assert fermionic_character_12(t2, order).coeffs == tuple(acc[:order + 1]), (t2, order)


def _count_passes(monkeypatch) -> dict:
    """Count the (1 - q^k) passes `characters` makes, by kind, from here on."""
    calls = {"divide": 0, "times": 0}
    divide, times = characters._divide_one_minus, characters._times_one_minus

    def counted_divide(out, k):
        calls["divide"] += 1
        divide(out, k)

    def counted_times(out, k):
        calls["times"] += 1
        times(out, k)

    monkeypatch.setattr(characters, "_divide_one_minus", counted_divide)
    monkeypatch.setattr(characters, "_times_one_minus", counted_times)
    return calls


def test_fermionic_walk_divides_once_per_m1(monkeypatch):
    # each binomial step is one multiplication and one division; any other
    # division belongs to the sweep over m_1, one pass per value within order
    calls = _count_passes(monkeypatch)
    order = 90
    for t2 in range(4, 15):
        calls.update(divide=0, times=0)
        series = fermionic_character_12(t2, order)
        assert calls["divide"] - calls["times"] <= order, (t2, calls)
        assert series == bosonic_character(theorem1_label(t2, 1, 1), order)
    # histories that share (m_c, tail) take their passes once, and a level
    # with nothing above it (m_c = 0) takes none: 288 passes, where a walk
    # with one history per prefix takes 438
    assert calls["divide"] + calls["times"] <= 288, calls


def test_closed_forms_step_from_neighbours(monkeypatch):
    # the row walk takes each factor pass once per step: a row's base over
    # its new Pochhammer factors, each term over its new ones; terms rebuilt
    # alone would take 120, 1 045 and 1 836 passes at q^240
    calls = _count_passes(monkeypatch)
    for form, passes in ((fermionic_sum_2_5, {"divide": 15, "times": 0}),
                         (fermionic_sum_3_7, {"divide": 99, "times": 0}),
                         (fermionic_sum_4_7, {"divide": 177, "times": 41})):
        calls.update(divide=0, times=0)
        form(240)
        assert calls == passes, form.__name__


def test_occupation_vectors_match_brute_force():
    # every vector in a box, filtered by its exponent, in lexicographic order,
    # at every order up to 14, so the cut is checked at each of its boundaries
    for t2 in range(4, 10):
        bmat = b_matrix(t2)
        box = itertools.product(range(5), repeat=t2 - 3)  # n_c^2 <= e for every c
        exps = [(n, sum(n[i] * bmat[i][j] * n[j] for i in range(t2 - 3)
                        for j in range(t2 - 3)) // 2) for n in box]
        for order in range(15):
            expect = [(n, e) for n, e in exps if e <= order]
            assert list(occupation_vectors(t2, order)) == expect, (t2, order)
    assert list(occupation_vectors(6, -1)) == []


def test_occupation_vectors_skip_charges_out_of_reach():
    # one particle of charge c alone has exponent c(c-1)/2
    zero = (0,) * 997
    assert list(occupation_vectors(1000, 3)) == [
        (zero, 0), (zero[:1] + (1,) + zero[2:], 3), ((1,) + zero[1:], 1),
    ]


def test_fermionic_forms_retain_no_memory():
    def run(orders):
        for order in orders:
            fermionic_character_12(10, order)
            fermionic_sum_2_5(order)
            fermionic_sum_3_7(order)
            fermionic_sum_4_7(order)

    tracemalloc.start()
    try:
        run([20])  # a first call settles one-time allocations
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        run(range(20, 81, 5))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 16 * 1024
