"""Identity-verification suites with JSON-lines reports.

Series checks compare two independently computed integer series and report
the first mismatching power with both coefficients.  Structural checks
(bijection round trips, minimal sector paths) report the failing path or
sector in `detail`; the moves check leans on `apply_move`, whose own checks
raise.  A job that raises fails alone: its report (suite "error") names the
call, and its `detail` holds the exception and the line that raised it.
Only `MemoryError` escapes a job, and ends the run: the order is too large.
Each check is an independent job, so suites can fan out over a process
pool; reports are sorted by suite and name regardless of scheduling.  The
worker count is `workers` when given, else the number of cores.  Each
report's `elapsed` is the time its job took, measured around the call in
one place, so the jobs themselves do no timing.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import gcd

from . import bijections as bj
from . import halfpath as hp
from . import particles as pt
from . import rsos as rs
from .characters import (
    CharacterLabel,
    bosonic_character,
    fermionic_character_12,
    occupation_vectors,
    fermionic_sum_2_5,
    fermionic_sum_3_7,
    fermionic_sum_4_7,
    theorem1_label,
    verify_symmetries,
)
from .qseries import QSeries, modular_product


@dataclass
class VerifyReport:
    suite: str
    name: str
    params: dict
    order: int | None
    ok: bool
    mismatch_power: int | None = None
    lhs: int | None = None
    rhs: int | None = None
    elapsed: float = 0.0
    detail: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "name": self.name,
            "params": self.params,
            "order": self.order,
            "status": "pass" if self.ok else "fail",
            "elapsed": round(self.elapsed, 3),
        }
        if not self.ok:
            payload["mismatch_power"] = self.mismatch_power
            payload["lhs"] = self.lhs
            payload["rhs"] = self.rhs
        if self.detail:
            payload["detail"] = self.detail
        return json.dumps(payload, sort_keys=True)


def _series_report(
    suite: str, name: str, params: dict, lhs: QSeries, rhs: QSeries
) -> VerifyReport:
    order = min(lhs.order, rhs.order)
    for k in range(order + 1):
        if lhs.coeffs[k] != rhs.coeffs[k]:
            return VerifyReport(
                suite, name, params, order, False, k, lhs.coeffs[k], rhs.coeffs[k]
            )
    return VerifyReport(suite, name, params, order, True)


# -- individual jobs (module level so a process pool can run them) ----------


def _job_xrocha(p: int, pp: int, a: int, b: int, order: int) -> VerifyReport:
    r = rs.tail_band_index(p, pp, b)
    lhs = rs.generating_function(p, pp, a, b, order)
    rhs = bosonic_character(CharacterLabel(p, pp, r, a), order)
    return _series_report(
        "theorem1", f"X({p},{pp},{a},{b})", dict(p=p, pp=pp, a=a, b=b), lhs, rhs
    )


def _job_yhalf(t2: int, a2: int, b2: int, order: int) -> VerifyReport:
    lhs = hp.generating_function(t2, a2, b2, order)
    rhs = bosonic_character(theorem1_label(t2, a2 // 2, b2 // 2), order)
    return _series_report(
        "theorem1", f"Y({t2},{a2},{b2})", dict(T=t2, A=a2, B=b2), lhs, rhs
    )


def _job_theorem2(t2: int, order: int) -> VerifyReport:
    lhs = fermionic_character_12(t2, order)
    rhs = bosonic_character(theorem1_label(t2, 1, 1), order)
    return _series_report("theorem2", f"fermionic(T={t2})", dict(T=t2), lhs, rhs)


_CLOSED_FORMS = {
    "M(2,5)": (fermionic_sum_2_5, (2, 5, 1, 2)),
    "M(3,7)": (fermionic_sum_3_7, (3, 7, 1, 2)),
    "M(4,7)": (fermionic_sum_4_7, (4, 7, 1, 2)),
}

_PRODUCTS = {
    "M(2,5)": (5, frozenset({1, 4}), (2, 5, 1, 2)),
    "M(3,7)": (
        28,
        frozenset(range(1, 28))
        - frozenset({2, 26, 10, 18, 12, 16, 14}),
        (3, 7, 1, 2),
    ),
    "M(3,4)": (16, frozenset({1, 4, 6, 7, 9, 10, 12, 15}), (3, 4, 1, 3)),
}


def _job_closed_form(which: str, order: int) -> VerifyReport:
    fn, label = _CLOSED_FORMS[which]
    lhs = fn(order)
    rhs = bosonic_character(CharacterLabel(*label), order)
    return _series_report("theorem2", f"closed-form {which}", dict(model=which), lhs, rhs)


def _job_product(which: str, order: int) -> VerifyReport:
    modulus, residues, label = _PRODUCTS[which]
    lhs = modular_product(modulus, residues, order)
    rhs = bosonic_character(CharacterLabel(*label), order)
    return _series_report(
        "products", f"product {which}", dict(model=which, modulus=modulus), lhs, rhs
    )


def _job_symmetry(p: int, pp: int, r: int, s: int, order: int) -> VerifyReport:
    rep = verify_symmetries(CharacterLabel(p, pp, r, s), order)
    return VerifyReport(
        "symmetries",
        f"chi({p},{pp},{r},{s})",
        dict(p=p, pp=pp, r=r, s=s),
        order,
        rep.ok,
        rep.mismatch_power,
        rep.lhs_coeff,
        rep.rhs_coeff,
        detail={} if rep.ok else {"identity": rep.failed_identity},
    )


def _job_bijection(family: int, p: int, a: int, tail: int, max_weight: int) -> VerifyReport:
    """Exhaustive weight-bounded round trip for one (a, tail) pair."""
    if family == 1:
        pp, half_args = 2 * p + 1, (2 * p, a, tail)
    else:
        pp, half_args = 2 * p - 1, (2 * p - 1, tail + 1, a)
    name = f"bij{family}({p},{pp},a={a},tail={tail})"
    params = dict(family=family, p=p, pp=pp, a=a, tail=tail, max_weight=max_weight)
    paths = rs.enumerate_paths(p, pp, a, tail, max_weight)
    halves = list(hp.enumerate_paths(*half_args, max_weight))

    def report(ok: bool, **detail) -> VerifyReport:
        return VerifyReport("bijections", name, params, max_weight, ok, detail=detail)

    images = set()
    for h in paths:
        img, _ = bj.forward(h)
        if hp.weight(img) != rs.weight(h):
            return report(False, reason="weight changed", path=h.to_line())
        if bj.inverse(img) != h:
            return report(False, reason="inverse mismatch", path=h.to_line())
        images.add(img)
    if len(images) != len(paths) or images != set(halves):
        return report(False, reason="image set does not exhaust the half-path set",
                      paths=len(paths), halves=len(halves), images=len(images))
    for g in halves:
        again, _ = bj.forward(bj.inverse(g))
        if again != g:
            return report(False, reason="forward(inverse) mismatch", path=g.to_line())
    return report(True, paths=len(paths))


def _job_sector_sum(t2: int, order: int) -> VerifyReport:
    lhs = sum((pt.sector_gf(t2, vec, order) for vec, _ in occupation_vectors(t2, order)),
              QSeries.zero(order))
    rhs = hp.generating_function(t2, 2, 2, order)
    return _series_report("sectors", f"sector-sum(T={t2})", dict(T=t2), lhs, rhs)


def _job_sector_group(t2: int, order: int) -> VerifyReport:
    groups: dict[tuple[int, ...], list[int]] = defaultdict(lambda: [0] * (order + 1))
    for path in hp.enumerate_paths(t2, 2, 2, order):
        groups[pt.dissect(path).sector][hp.weight(path)] += 1
    for sector, counts in sorted(groups.items()):
        expect = pt.sector_gf(t2, sector, order)
        got = QSeries(order, tuple(counts))
        if got.coeffs != expect.coeffs:
            return _series_report(
                "sectors", f"sector-group(T={t2})", dict(T=t2, sector=list(sector)),
                got, expect,
            )
    return VerifyReport(
        "sectors", f"sector-group(T={t2})", dict(T=t2), order, True,
        detail={"sectors": len(groups)},
    )


def _job_minimal_sectors(t2: int, budget: int) -> VerifyReport:
    checked = 0
    for vec, e in occupation_vectors(t2, budget):
        path = pt.minimal_path(t2, vec)  # checks the dissection round trip
        if not hp.weight(path) == e == pt.minimal_weight(t2, vec):
            return VerifyReport(
                "sectors", f"minimal(T={t2})", dict(T=t2), budget, False,
                detail={"sector": list(vec)},
            )
        checked += 1
    return VerifyReport(
        "sectors", f"minimal(T={t2})", dict(T=t2), budget, True,
        detail={"sectors": checked},
    )


def _job_moves(t2: int, max_weight: int, rounds: int) -> VerifyReport:
    """Apply every permitted move to every enumerated path, then keep going
    breadth-first for a few rounds; apply_move itself checks the +1 weight
    shift and sector preservation, so this job mainly counts coverage.
    """
    frontier = list(hp.enumerate_paths(t2, 2, 2, max_weight))
    seen = set(frontier)
    pairs = 0
    for _ in range(rounds):
        nxt = []
        for path in frontier:
            for move in pt.enumerate_moves(path):
                new = pt.apply_move(path, move)
                pairs += 1
                if new not in seen:
                    seen.add(new)
                    nxt.append(new)
        frontier = nxt
    return VerifyReport(
        "sectors", f"moves(T={t2})", dict(T=t2, max_weight=max_weight), max_weight,
        True, detail={"pairs": pairs},
    )


# -- suite assembly -----------------------------------------------------------

RSOS_FAMILIES = ((2, 5), (3, 5), (3, 7), (4, 7), (4, 9), (5, 9), (5, 11))


def jobs_theorem1(order: int, max_t2: int):
    y_order = min(order, 15)  # no cost reason: keeps the report lines until the suite widens
    jobs = []
    for p, pp in RSOS_FAMILIES:
        for a in range(1, pp):
            for b in sorted(rs.dark_floors(p, pp)):
                jobs.append((_job_xrocha, (p, pp, a, b, order)))
    for t2 in range(4, max_t2 + 1):
        for a2 in range(2, t2 + 1, 2):
            for b2 in range(2, t2 + 1, 2):
                if hp.theorem1_domain(t2, a2, b2):
                    jobs.append((_job_yhalf, (t2, a2, b2, y_order)))
    return jobs


def jobs_theorem2(order: int, max_t2: int):
    jobs = [(_job_theorem2, (t2, order)) for t2 in range(4, max_t2 + 1)]
    jobs += [(_job_closed_form, (which, order)) for which in sorted(_CLOSED_FORMS)]
    return jobs


def jobs_products(order: int, max_t2: int):
    return [(_job_product, (which, order)) for which in sorted(_PRODUCTS)]


def jobs_symmetries(order: int, max_t2: int):
    return [(_job_symmetry, (p, pp, r, s, order))
            for pp in range(3, 13) for p in range(2, pp) if gcd(p, pp) == 1
            for r in range(1, p) for s in range(1, pp)]


def jobs_bijections(order: int, max_t2: int):
    max_weight = min(order, 12)  # exhaustive round trips: the path sets grow fast
    jobs = []
    # every Theorem-1 half label with T = 4..8: (2p, a, tail) for p' = 2p+1,
    # (2p-1, tail+1, a) for p' = 2p-1
    for t2 in range(4, 9):
        for a in range(2, t2 + 1, 2):
            for x in range(2, t2 + 1, 2):
                if t2 % 2 == 0 and hp.theorem1_domain(t2, a, x):
                    jobs.append((_job_bijection, (1, t2 // 2, a, x, max_weight)))
                elif t2 % 2 and hp.theorem1_domain(t2, x, a):
                    jobs.append((_job_bijection, (2, (t2 + 1) // 2, a, x - 1, max_weight)))
    return jobs


# weight bound of the enumerated sector groups and minimal paths, and the
# breadth-first rounds of the moves job
_GROUP_ORDER = 12
_MOVE_ROUNDS = 8


def jobs_sectors(order: int, max_t2: int):
    order = min(order, 15)  # no cost reason: keeps the report lines until the suite widens
    jobs = []
    for t2 in range(4, max_t2 + 1):
        jobs.append((_job_sector_sum, (t2, order)))
        jobs.append((_job_sector_group, (t2, _GROUP_ORDER)))
        jobs.append((_job_minimal_sectors, (t2, _GROUP_ORDER)))
        jobs.append((_job_moves, (t2, _GROUP_ORDER, _MOVE_ROUNDS)))
    return jobs


SUITES = {
    "theorem1": jobs_theorem1,
    "theorem2": jobs_theorem2,
    "products": jobs_products,
    "symmetries": jobs_symmetries,
    "bijections": jobs_bijections,
    "sectors": jobs_sectors,
}


def _run_job(job) -> VerifyReport:
    """The job's report; a job that raises fails on its own and names the
    raising call, so the other jobs still report.  Running out of memory is
    the one exception: it means the order is too large for any job, so it
    escapes, from a worker process too, and fails the whole run.
    """
    fn, args = job
    t0 = time.perf_counter()
    try:
        report = fn(*args)
    except MemoryError:
        raise
    except Exception as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        report = VerifyReport(
            "error", f"{fn.__name__}{args}", {"function": fn.__name__, "args": list(args)},
            None, False,
            detail={"error": f"{type(exc).__name__}: {exc}",
                    "at": f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"},
        )
    report.elapsed = time.perf_counter() - t0
    return report


def run_jobs(jobs, workers: int | None = None) -> list[VerifyReport]:
    if workers is None:
        workers = os.cpu_count() or 1
    if workers <= 1 or len(jobs) <= 1:
        reports = [_run_job(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            reports = list(pool.map(_run_job, jobs))
    return sorted(reports, key=lambda r: (r.suite, r.name))


def run_suite(name: str, order: int = 20, max_t2: int = 10,
              workers: int | None = None) -> list[VerifyReport]:
    # checked before any job runs: a job's own error would only fail its report
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if max_t2 < 4:  # T = 2t starts at 4; a smaller bound would drop every T job
        raise ValueError(f"max_t2 must be at least 4, got {max_t2}")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if name == "all":
        jobs = [job for make in SUITES.values() for job in make(order, max_t2)]
        return run_jobs(jobs, workers)
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return run_jobs(SUITES[name](order, max_t2), workers)
