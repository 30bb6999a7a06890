"""Per-path cost of reading a path, of mapping it there and back, and of
its particle calculus, by path length.  For seeded random walks of L = 100,
200, ..., 3 200 steps in both bijection families, it prints the median
microseconds of one `.of` read, of parsing and reading the path's line
with `from_line`, and of one round trip, for RSOS paths (forward, then
inverse) and for half paths (inverse, then forward), and next to each
round trip its vertex passes (`RsosPath._scan_frame`,
`HalfPath._scan_frame` and `lattice.turns` calls) and the paths it reads
(`lattice.Path._read` calls).  A round trip starts from the
heights, so it includes the input's own `.of` read, its one read and one
pass; each map reads no path and scans each of its stages once, its output
the last of them, so a trip makes 7 passes for p' = 2p+1 (3 stages each
way) and 10 for p' = 2p-1 (4 each way, and the flip's peaks found by
`lattice.turns`).  For corner half paths (A = B = 2) of the same lengths
it prints the median microseconds of one `dissect` of a freshly read path,
and of listing and applying all the moves of such a path, per listed move:
a path of L steps lists about L/10 moves, and each builds, weighs and
dissects a path of L steps.  Every cost should grow linearly in L.

    PYTHONPATH=src python3 tools/path_sweep.py [--max-steps 3200]
"""

import argparse
import gc
import random
import statistics
import time
from functools import partial
from unittest import mock

from viracomb import bijections, lattice, particles
from viracomb.halfpath import HalfPath, theorem1_labels
from viracomb.rsos import RsosPath

STEPS = (100, 200, 400, 800, 1600, 3200)
PATHS = 15  # walks per cell and model
CORNER_PATHS = 5  # corner walks per cell: applying all moves is quadratic in L
ROUNDS = 7  # timings per call


def walk(rnd: random.Random, start: int, lo: int, hi: int, b: int, steps: int,
         half: bool) -> list[int]:
    """A random unit-step walk of `steps` steps on lo..hi, then led into the
    tail band {b, b+1}; a half walk keeps its valleys at even doubled heights.
    """
    hs = [start]

    def ok(nh: int) -> bool:
        prev = hs[-2] if len(hs) > 1 else start + 1
        return lo <= nh <= hi and not (half and prev == nh == hs[-1] + 1 and hs[-1] % 2)

    for _ in range(steps):
        hs.append(rnd.choice([nh for nh in (hs[-1] - 1, hs[-1] + 1) if ok(nh)]))
    while hs[-1] not in (b, b + 1):
        nh = hs[-1] - 1 if hs[-1] > b + 1 else hs[-1] + 1
        hs.append(nh if ok(nh) else hs[-1] - 1)
    return hs


def label(rnd: random.Random, family: int, half: bool) -> tuple[int, ...]:
    """A random label the family's maps accept, (p, p', a, b) or (T, A, B)."""
    p = rnd.randint(3, 6)
    if half:
        t2 = 2 * p if family == 1 else 2 * p - 1
        return rnd.choice(theorem1_labels(t2, t2))
    if family == 1:
        return p, 2 * p + 1, 2 * rnd.randint(1, p), 2 * rnd.randint(1, p - 1)
    return p, 2 * p - 1, 2 * rnd.randint(1, p - 1), 2 * rnd.randint(1, p - 1) - 1


def cases(family: int, steps: int, rnd: random.Random) -> list[tuple]:
    """(read, line read, round trip) calls for PATHS random walks of
    `steps` steps, RSOS paths first, then half paths.
    """
    out = []
    for half in (False, True):
        for _ in range(PATHS):
            lab = label(rnd, family, half)
            lo, hi = (2, lab[0]) if half else (1, lab[1] - 1)
            hs = walk(rnd, lab[-2], lo, hi, lab[-1], steps, half)
            if half:
                out.append((lambda lab=lab, hs=hs: HalfPath.of(*lab, hs),
                            partial(HalfPath.from_line, HalfPath.of(*lab, hs).to_line()),
                            lambda lab=lab, hs=hs: bijections.forward(
                                bijections.inverse(HalfPath.of(*lab, hs)))))
            else:
                out.append((lambda lab=lab, hs=hs: RsosPath.of(*lab, hs),
                            partial(RsosPath.from_line, RsosPath.of(*lab, hs).to_line()),
                            lambda lab=lab, hs=hs: bijections.inverse(
                                bijections.forward(RsosPath.of(*lab, hs))[0])))
    return out


def corner_cases(steps: int, rnd: random.Random) -> tuple[list[tuple], list[int]]:
    """(dissect, all moves) timings for CORNER_PATHS random corner walks of
    `steps` steps, and the number of moves each lists.
    """
    out, moves = [], []
    for _ in range(CORNER_PATHS):
        t2 = rnd.randint(4, 12)
        lab, hs = (t2, 2, 2), walk(rnd, 2, 2, t2, 2, steps, True)
        out.append((partial(fresh_us, particles.dissect, lab, hs),
                    partial(fresh_us, apply_all, lab, hs)))
        moves.append(len(particles.enumerate_moves(HalfPath.of(*lab, hs))))
    return out, moves


def apply_all(path: HalfPath) -> None:
    """List the moves of a path and apply each of them."""
    for move in particles.enumerate_moves(path):
        try:
            particles.apply_move(path, move)
        except AssertionError:
            pass  # a listed move that breaks the weight or the sector


def scans_per_trip(trip) -> tuple[int, int]:
    """The vertex passes one call of trip makes, and the paths, RSOS and
    half, it reads.
    """
    with mock.patch.object(RsosPath, "_scan_frame", wraps=RsosPath._scan_frame) as rs, \
            mock.patch.object(HalfPath, "_scan_frame", wraps=HalfPath._scan_frame) as hs, \
            mock.patch.object(lattice, "turns", wraps=lattice.turns) as t, \
            mock.patch.object(lattice.Path, "_read", autospec=True,
                              side_effect=lattice.Path._read) as reads:
        trip()
    return rs.call_count + hs.call_count + t.call_count, reads.call_count


def timed_us(call) -> float:
    t0 = time.perf_counter()
    call()
    return (time.perf_counter() - t0) * 1e6


def fresh_us(call, lab: tuple, hs: list[int]) -> float:
    """The time of call(path), path read from hs just before, untimed: a
    path keeps its scan and its dissection, so each timing needs a new one.
    """
    path = HalfPath.of(*lab, hs)
    return timed_us(lambda: call(path))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-steps", type=int, default=STEPS[-1])
    args = parser.parse_args()
    steps_run = [s for s in STEPS if s <= args.max_steps]
    cells, scans = {}, {}
    for family in (1, 2):
        rnd = random.Random(10 + family)
        for steps in steps_run:
            calls = cases(family, steps, rnd)
            scans[family, steps] = [scans_per_trip(calls[k][-1]) for k in (0, PATHS)]
            cells[family, steps] = [tuple(partial(timed_us, call) for call in row)
                                    for row in calls]
    rnd = random.Random(13)
    moves = {}
    for steps in steps_run:
        cells["corner", steps], moves[steps] = corner_cases(steps, rnd)
    # each call is timed once per round and keeps its least time: the rounds
    # spread a call's samples over the whole run, so a stretch of a loaded
    # machine does not decide a cell
    best = {key: [[float("inf")] * len(row) for row in calls] for key, calls in cells.items()}
    gc.disable()
    try:
        for _ in range(ROUNDS):
            for key, calls in cells.items():
                for mins, pair in zip(best[key], calls):
                    for k, call in enumerate(pair):
                        mins[k] = min(mins[k], call())
            gc.collect()
    finally:
        gc.enable()
    print(f"{'family':>6} {'L':>5} {'rsos .of':>9} {'rsos line':>9} {'rsos trip':>10} "
          f"{'passes':>6} {'reads':>5} {'half .of':>9} {'half line':>9} {'half trip':>10} "
          f"{'passes':>6} {'reads':>5}   (median µs per path, its line parsed and read by "
          f"from_line; vertex passes and paths read per trip)")
    for (family, steps), mins in best.items():
        if family == "corner":
            continue
        row = [statistics.median(m[k] for m in part)
               for part in (mins[:PATHS], mins[PATHS:]) for k in (0, 1, 2)]
        (rsos_passes, rsos_reads), (half_passes, half_reads) = scans[family, steps]
        print(f"{family:>6} {steps:>5} {row[0]:>9.0f} {row[1]:>9.0f} {row[2]:>10.0f} "
              f"{rsos_passes:>6} {rsos_reads:>5} {row[3]:>9.0f} {row[4]:>9.0f} {row[5]:>10.0f} "
              f"{half_passes:>6} {half_reads:>5}")
    print(f"{'corner':>6} {'L':>5} {'dissect':>9} {'per move':>10} {'moves':>9}"
          f"   (median µs per path, per listed move; mean moves per path)")
    for steps in steps_run:
        mins = best["corner", steps]
        per_move = statistics.median(m[1] / max(n, 1) for m, n in zip(mins, moves[steps]))
        print(f"{'':>6} {steps:>5} {statistics.median(m[0] for m in mins):>9.0f} "
              f"{per_move:>10.0f} {statistics.mean(moves[steps]):>9.0f}")


if __name__ == "__main__":
    main()
