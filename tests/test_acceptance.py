"""Acceptance suite: one test per top-level criterion, each printing a
pass/fail line.  Everything here is exact integer arithmetic: no check
carries a tolerance.  Run with `pytest -s tests/test_acceptance.py` to see
the lines as they complete.
"""

import random
from math import gcd

from viracomb import halfpath as hp
from viracomb import rsos
from viracomb.bijections import bij1_forward, bij2_forward
from viracomb.characters import CharacterLabel, theorem1_label
from viracomb.halfpath import HalfPath
from viracomb.particles import dissect, minimal_path, minimal_weight
from viracomb.qseries import QSeries, q_binomial
from viracomb.rsos import RsosPath
from viracomb.verify import (
    _check_series,
    jobs_bijections,
    jobs_products,
    jobs_sectors,
    jobs_symmetries,
    jobs_theorem1,
    jobs_theorem2,
    run_jobs,
)

from data_paths import (
    BIJ1_LAM,
    BIJ1_MU,
    BIJ2_C,
    BIJ2_D,
    BIJ2_K,
    BIJ2_LAM,
    BIJ2_M,
    BIJ2_MU,
    BIJ2_NU,
    DISSECT_10,
    DISSECT_10_CHARGES,
    DISSECT_10_SECTOR,
    HALF_7_CUT,
    HALF_7_IMAGE,
    HALF_7_INT,
    HALF_8_IMAGE,
    HALF_10,
    MINIMAL_10,
    RSOS_47,
    RSOS_47_CUT,
    RSOS_49,
    RSOS_49_CUT,
)
from oracles import raw_weight_quarters, weight_edgewise, weight_extended


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def run_and_report(criterion: str, jobs) -> list:
    reports = run_jobs(jobs)
    bad = [r for r in reports if not r.ok]
    for r in bad:
        print("  failed:", r.to_json())
    report(criterion, not bad, f"{len(reports)} checks")
    return reports


def named(jobs, suite: str, prefix: str) -> list:
    """The jobs of one suite whose names start with prefix (at least one)."""
    chosen = [j for j in jobs if j[0] == suite and j[1].startswith(prefix)]
    assert chosen, (suite, prefix)
    return chosen


def test_criterion_1_golden_weights():
    ok = True
    ok &= rsos.weight(RsosPath.of(*RSOS_49)) == 74
    ok &= hp.weight(HalfPath.of(*HALF_10)) == 66
    image = HalfPath.of(*HALF_8_IMAGE)
    ok &= raw_weight_quarters(image) == 297 and hp.weight(image) == 74
    ok &= rsos.weight(RsosPath.of(*RSOS_47)) == 112
    dual = HalfPath.of(*HALF_7_IMAGE)
    ok &= raw_weight_quarters(dual) == 458 and hp.weight(dual) == 112
    report("criterion-1 golden weights", ok)


def test_criterion_2_golden_traces():
    image1, tr1 = bij1_forward(RsosPath.of(*RSOS_49))
    ok = (
        tr1.n == 4
        and tr1.lam == BIJ1_LAM
        and tr1.mu == BIJ1_MU
        and tr1.h_cut == RsosPath.of(*RSOS_49_CUT)
        and image1 == HalfPath.of(*HALF_8_IMAGE)
    )
    image2, tr2 = bij2_forward(RsosPath.of(*RSOS_47))
    ok &= (
        tr2.n == 8
        and tr2.lam == BIJ2_LAM
        and (tr2.k, tr2.m, tr2.c, tr2.d) == (BIJ2_K, BIJ2_M, BIJ2_C, BIJ2_D)
        and tr2.mu == BIJ2_MU
        and tr2.nu == BIJ2_NU
        and tr2.h_cut == RsosPath.of(*RSOS_47_CUT)
        and tr2.h_hat_cut == HalfPath.of(*HALF_7_CUT)
        and tr2.h_hat_int == HalfPath.of(*HALF_7_INT)
        and image2 == HalfPath.of(*HALF_7_IMAGE)
    )
    report("criterion-2 golden bijection traces", ok)


def test_criterion_3a_rsos_generating_functions():
    jobs = named(jobs_theorem1(20, 10), "theorem1", "X(")
    run_and_report("criterion-3a X = chi to q^20", jobs)


def test_criterion_3b_half_generating_functions():
    jobs = named(jobs_theorem1(20, 10), "theorem1", "Y(")
    run_and_report("criterion-3b Y = chi to q^20", jobs)


def test_criterion_3f_theorem1_every_label():
    # every coprime p' <= 13 with each a and each dark b, and every
    # admissible (A, B) for T = 4..14, at the benchmark's higher order
    jobs = [("theorem1", f"X({p},{pp},{a},{b})", {}, 16, _check_series,
             (rsos.generating_function, (p, pp, a, b),
              CharacterLabel(p, pp, rsos.tail_band_index(p, pp, b), a)))
            for pp in range(3, 14) for p in range(2, pp) if gcd(p, pp) == 1
            for a in range(1, pp) for b in sorted(rsos.dark_floors(p, pp))]
    jobs += [("theorem1", f"Y({t2},{a2},{b2})", {}, 16, _check_series,
              (hp.generating_function, (t2, a2, b2), theorem1_label(t2, a2 // 2, b2 // 2)))
             for t2 in range(4, 15) for a2 in range(2, t2 + 1, 2)
             for b2 in range(2, t2 + 1, 2) if hp.theorem1_domain(t2, a2, b2)]
    assert len(jobs) == 2202
    run_and_report("criterion-3f X = chi and Y = chi for every label to q^16", jobs)


def test_criterion_3c_fermionic_forms():
    jobs = named(jobs_theorem2(30, 10), "theorem2", "fermionic(")
    run_and_report("criterion-3c fermionic = bosonic to q^30", jobs)


def test_criterion_3d_closed_forms_and_products():
    jobs = named(jobs_theorem2(30, 10), "theorem2", "closed-form ")
    jobs += jobs_products(30, 10)
    run_and_report("criterion-3d closed forms and products to q^30", jobs)


def test_criterion_3e_symmetries():
    run_and_report("criterion-3e symmetry identities to q^30", jobs_symmetries(30, 10))


def test_criterion_4_exhaustive_bijections():
    run_and_report("criterion-4 exhaustive bijections, weight <= 12",
                   jobs_bijections(12, 10))


def test_criterion_5_particle_calculus():
    dis = dissect(HalfPath.of(*DISSECT_10))
    ok = [p.charge2 for p in dis.particles] == DISSECT_10_CHARGES
    ok &= dis.sector == DISSECT_10_SECTOR
    ok &= list(minimal_path(10, DISSECT_10_SECTOR).doubled) == MINIMAL_10
    report("criterion-5 dissection and minimal-path goldens", ok)

    reports = run_and_report("criterion-5 sector identities", jobs_sectors(15, 10))
    # the moves check of each T = 4..10 counts its (path, move) pairs
    pairs = sum(r.detail["pairs"] for r in reports if r.name.startswith("moves("))
    report("criterion-5 move sampling", pairs >= 10_000, f"{pairs} (path, move) pairs")


def test_criterion_6_property_suites():
    rng = random.Random(20260810)
    ok = True
    for _ in range(1000):
        order = rng.randrange(1, 10)
        mk = lambda: QSeries.from_coeffs(
            [rng.randrange(-9, 10) for _ in range(order + 1)], order
        )
        a, b, c = mk(), mk(), mk()
        ok &= a + b == b + a and a * b == b * a
        ok &= (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
        ok &= a * (b + c) == a * b + a * c
        unit = QSeries.from_coeffs(
            [rng.choice([1, -1])] + [rng.randrange(-6, 7) for _ in range(order)], order
        )
        ok &= unit * unit.invert() == QSeries.one(order)
    report("criterion-6 ring axioms and inversion", ok, "1000 randomized cases")

    from test_qseries import brute_partitions

    series = __import__("viracomb.qseries", fromlist=["x"]).pochhammer_inf_inverse(40)
    ok = all(
        series.coeffs[n] == sum(1 for _ in brute_partitions(n)) for n in range(41)
    )
    report("criterion-6 partition-count oracle to n=40", ok)

    ok = True
    for m in range(21):
        for n in range(m + 1):
            deg = max(n * (m - n), 1)
            s = q_binomial(m, n, deg)
            ok &= s == q_binomial(m, m - n, deg)
            ok &= all(c >= 0 for c in s.coeffs)
    report("criterion-6 q-binomial symmetry and nonnegativity, m <= 20", ok)

    ok = True
    count = 0
    for path in rsos.enumerate_paths(4, 9, 8, 6, 10):
        ok &= rsos.weight(path) == weight_edgewise(path)
        count += 1
    for path in rsos.enumerate_paths(4, 7, 6, 1, 10):
        ok &= rsos.weight(path) == weight_edgewise(path)
        count += 1
    for path in hp.enumerate_paths(8, 8, 6, 10):
        ok &= hp.weight(path) == weight_extended(path)
        count += 1
    for path in hp.enumerate_paths(7, 2, 6, 10):
        ok &= hp.weight(path) == weight_extended(path)
        count += 1
    report("criterion-6 weight identities on enumerated paths", ok, f"{count} paths")

    # every enumeration above raises if a branch is still live at its hard
    # horizon; reaching this point means none of them tripped it
    report("criterion-6 horizon stabilization", True, "asserted inside enumerate")
