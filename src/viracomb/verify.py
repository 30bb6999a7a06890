"""Identity-verification suites with JSON-lines reports.

A verify job is a tuple (suite, name, params, order, check, args): each
`jobs_*` function builds its suite's jobs, and `check(*args, order)`
returns only the verdict, as the keyword fields of a report: `ok`, the
first mismatching power with both coefficients when two series differ,
and any `detail`.  Series checks compare two independently computed
integer series; structural checks (bijection round trips, minimal sector
paths) name the failing path or sector in `detail`; the moves check leans
on `apply_move`, whose own checks raise.  `_run_job` builds every report,
so a report always carries its job's suite, name, params and order,
whether the check passes, fails or raises.  A job whose check raises
fails alone: its `detail` holds the exception (`error`) and the line that
raised it (`at`).  Only `MemoryError` escapes a job, and ends the run: the
order is too large.  Each check is an independent job, so suites can fan
out over a process pool; reports are sorted by suite and name regardless
of scheduling.  The worker count is `workers` when given, else the number
of cores.  Each report's `elapsed` is the time its job took in seconds,
to the microsecond, measured around the check in `_run_job`, so the checks
do no timing.
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
            "elapsed": round(self.elapsed, 6),
        }
        if not self.ok:
            payload["mismatch_power"] = self.mismatch_power
            payload["lhs"] = self.lhs
            payload["rhs"] = self.rhs
        if self.detail:
            payload["detail"] = self.detail
        return json.dumps(payload, sort_keys=True)


# -- checks (module level so a process pool can run them) -------------------


def _compare(lhs: QSeries, rhs: QSeries) -> dict:
    """A pass, or the first mismatching power with both coefficients."""
    for k, (x, y) in enumerate(zip(lhs.coeffs, rhs.coeffs)):
        if x != y:
            return dict(ok=False, mismatch_power=k, lhs=x, rhs=y)
    return dict(ok=True)


def _check_series(series, args: tuple, label: CharacterLabel, order: int) -> dict:
    """series(*args, order) against the bosonic character of label."""
    return _compare(series(*args, order), bosonic_character(label, order))


def _check_symmetries(label: CharacterLabel, order: int) -> dict:
    rep = verify_symmetries(label, order)
    return dict(ok=rep.ok, mismatch_power=rep.mismatch_power, lhs=rep.lhs_coeff,
                rhs=rep.rhs_coeff, detail={} if rep.ok else {"identity": rep.failed_identity})


def _check_bijection(t2: int, a2: int, b2: int, max_weight: int) -> dict:
    """One round trip per RSOS path of `hp.rsos_label(T, A, B)` within the
    weight bound; the half paths of (T, A, B) are counted, never listed.
    Images that carry (T, A, B) and their path's weight, map back to it and
    number as many as the half paths are the whole half-path set: each half
    path g is some forward(h) with inverse(g) = h, so forward(inverse(g)) = g.
    """
    paths = rs.enumerate_paths(*hp.rsos_label(t2, a2, b2), max_weight)
    halves = len(hp.enumerate_paths(t2, a2, b2, max_weight))

    def fail(reason: str, **detail) -> dict:
        return dict(ok=False, detail=dict(reason=reason, **detail))

    images = set()
    for h in paths:
        img, _ = bj.forward(h)
        if (img.t2, img.a2, img.b2, hp.weight(img)) != (t2, a2, b2, rs.weight(h)):
            return fail("label or weight changed", path=h.to_line())
        if bj.inverse(img) != h:
            return fail("inverse mismatch", path=h.to_line())
        images.add(img)
    if len(images) != halves:
        return fail("image set does not exhaust the half-path set",
                    paths=len(paths), halves=halves, images=len(images))
    return dict(ok=True, detail={"paths": len(paths)})


def _check_sector_sum(t2: int, order: int) -> dict:
    lhs = sum((pt.sector_gf(t2, vec, order) for vec, _ in occupation_vectors(t2, order)),
              QSeries.zero(order))
    return _compare(lhs, hp.generating_function(t2, 2, 2, order))


def _check_sector_group(t2: int, order: int) -> dict:
    groups: dict[tuple[int, ...], list[int]] = defaultdict(lambda: [0] * (order + 1))
    for path in hp.enumerate_paths(t2, 2, 2, order):
        groups[pt.dissect(path).sector][hp.weight(path)] += 1
    for sector, counts in sorted(groups.items()):
        verdict = _compare(QSeries(order, tuple(counts)), pt.sector_gf(t2, sector, order))
        if not verdict["ok"]:
            return verdict | {"detail": {"sector": list(sector)}}
    return dict(ok=True, detail={"sectors": len(groups)})


def _check_minimal_sectors(t2: int, budget: int) -> dict:
    checked = 0
    for vec, e in occupation_vectors(t2, budget):
        path = pt.minimal_path(t2, vec)  # checks the dissection round trip
        if not hp.weight(path) == e == pt.minimal_weight(t2, vec):
            return dict(ok=False, detail={"sector": list(vec)})
        checked += 1
    return dict(ok=True, detail={"sectors": checked})


def _check_moves(t2: int, rounds: int, max_weight: int) -> dict:
    """Apply every permitted move to every enumerated path, then keep going
    breadth-first for a few rounds; apply_move itself checks the +1 weight
    shift and sector preservation, so this check mainly counts coverage.
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
    return dict(ok=True, detail={"pairs": pairs})


# -- suite assembly -----------------------------------------------------------

RSOS_FAMILIES = ((2, 5), (3, 5), (3, 7), (4, 7), (4, 9), (5, 9), (5, 11))

_CLOSED_FORMS = {
    "M(2,5)": (fermionic_sum_2_5, CharacterLabel(2, 5, 1, 2)),
    "M(3,7)": (fermionic_sum_3_7, CharacterLabel(3, 7, 1, 2)),
    "M(4,7)": (fermionic_sum_4_7, CharacterLabel(4, 7, 1, 2)),
}

_PRODUCTS = {
    "M(2,5)": (5, frozenset({1, 4}), CharacterLabel(2, 5, 1, 2)),
    "M(3,7)": (
        28,
        frozenset(range(1, 28))
        - frozenset({2, 26, 10, 18, 12, 16, 14}),
        CharacterLabel(3, 7, 1, 2),
    ),
    "M(3,4)": (16, frozenset({1, 4, 6, 7, 9, 10, 12, 15}), CharacterLabel(3, 4, 1, 3)),
}


def jobs_theorem1(order: int, max_t2: int):
    jobs = []
    for p, pp in RSOS_FAMILIES:
        for a in range(1, pp):
            for b in sorted(rs.dark_floors(p, pp)):
                label = CharacterLabel(p, pp, rs.tail_band_index(p, pp, b), a)
                jobs.append(("theorem1", f"X({p},{pp},{a},{b})", dict(p=p, pp=pp, a=a, b=b),
                             order, _check_series, (rs.generating_function, (p, pp, a, b), label)))
    jobs += [("theorem1", f"Y({t2},{a2},{b2})", dict(T=t2, A=a2, B=b2), order, _check_series,
              (hp.generating_function, (t2, a2, b2), theorem1_label(t2, a2 // 2, b2 // 2)))
             for t2, a2, b2 in hp.theorem1_labels(4, max_t2)]
    return jobs


def jobs_theorem2(order: int, max_t2: int):
    jobs = [("theorem2", f"fermionic(T={t2})", dict(T=t2), order, _check_series,
             (fermionic_character_12, (t2,), theorem1_label(t2, 1, 1)))
            for t2 in range(4, max_t2 + 1)]
    jobs += [("theorem2", f"closed-form {which}", dict(model=which), order, _check_series,
              (fn, (), label)) for which, (fn, label) in sorted(_CLOSED_FORMS.items())]
    return jobs


def jobs_products(order: int, max_t2: int):
    return [("products", f"product {which}", dict(model=which, modulus=modulus), order,
             _check_series, (modular_product, (modulus, residues), label))
            for which, (modulus, residues, label) in sorted(_PRODUCTS.items())]


def jobs_symmetries(order: int, max_t2: int):
    return [("symmetries", f"chi({p},{pp},{r},{s})", dict(p=p, pp=pp, r=r, s=s), order,
             _check_symmetries, (CharacterLabel(p, pp, r, s),))
            for pp in range(3, 13) for p in range(2, pp) if gcd(p, pp) == 1
            for r in range(1, p) for s in range(1, pp)]


def jobs_bijections(order: int, max_t2: int):
    max_weight = min(order, 12)  # exhaustive round trips: the path sets grow fast
    jobs = []
    # every Theorem-1 half label (T, A, B) with T = 4..8, named by the RSOS
    # label (p, p', a, tail) it pairs with, of family 1 (p' = 2p+1) for even
    # T and family 2 (p' = 2p-1) for odd T
    for t2, a2, b2 in hp.theorem1_labels(4, 8):
        p, pp, a, tail = hp.rsos_label(t2, a2, b2)
        family = 1 + t2 % 2
        jobs.append(("bijections", f"bij{family}({p},{pp},a={a},tail={tail})",
                     dict(family=family, p=p, pp=pp, a=a, tail=tail, max_weight=max_weight),
                     max_weight, _check_bijection, (t2, a2, b2)))
    return jobs


# weight bound of the enumerated sector groups and minimal paths, and the
# breadth-first rounds of the moves check
_GROUP_ORDER = 12
_MOVE_ROUNDS = 8


def jobs_sectors(order: int, max_t2: int):
    jobs = []
    for t2 in range(4, max_t2 + 1):
        jobs += [
            ("sectors", f"sector-sum(T={t2})", dict(T=t2), order, _check_sector_sum, (t2,)),
            ("sectors", f"sector-group(T={t2})", dict(T=t2), _GROUP_ORDER,
             _check_sector_group, (t2,)),
            ("sectors", f"minimal(T={t2})", dict(T=t2), _GROUP_ORDER,
             _check_minimal_sectors, (t2,)),
            ("sectors", f"moves(T={t2})", dict(T=t2, max_weight=_GROUP_ORDER), _GROUP_ORDER,
             _check_moves, (t2, _MOVE_ROUNDS)),
        ]
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
    """The job's report, the one place a report is built.  A check that
    raises fails its own job, which keeps its suite, name, params and
    order, so the other jobs still report.  Running out of memory is the
    one exception: it means the order is too large for any job, so it
    escapes, from a worker process too, and fails the whole run.
    """
    suite, name, params, order, check, args = job
    t0 = time.perf_counter()
    try:
        verdict = check(*args, order)
    except MemoryError:
        raise
    except Exception as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        verdict = dict(ok=False, detail={
            "error": f"{type(exc).__name__}: {exc}",
            "at": f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"})
    return VerifyReport(suite, name, params, order, elapsed=time.perf_counter() - t0, **verdict)


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
