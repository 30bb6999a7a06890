"""Seeded inputs for the benchmark workloads.

Nothing here imports the program: the program receives only what these
functions produce.  Every input is a plain tuple, and every path arrives as
a path line in the program's one-line format.  Round ``r`` of a workload
under seed ``s`` is drawn from its own generator, so the same seed always
yields byte-identical rounds, however many rounds a run gets through.
"""

from __future__ import annotations

import random
from math import gcd

# Theorem-1 checks run each label at both orders, so the per-call growth of
# enumeration with the order shows on identical labels.
THEOREM1_ORDERS = (12, 16)
THEOREM1_MAX_PP = 13
THEOREM1_T2 = range(4, 13)
THEOREM1_HALF_PER_T2 = 2

# Character-series orders: high, and only two of them, so the program's
# order-keyed caches see misses in the first round and hits after it.
SERIES_ORDERS = (60, 90)
SERIES_T2 = range(4, 15)
SERIES_SYMMETRY_LABELS = 12
SERIES_MAX_PP = 13

# The label of each closed form and product checked against the bosonic side.
CLOSED_FORMS = {"M(2,5)": (2, 5, 1, 2), "M(3,7)": (3, 7, 1, 2), "M(4,7)": (4, 7, 1, 2)}
PRODUCTS = {
    "M(2,5)": (5, (1, 4), (2, 5, 1, 2)),
    "M(3,7)": (28, tuple(sorted(set(range(1, 28)) - {2, 10, 12, 14, 16, 18, 26})),
               (3, 7, 1, 2)),
    "M(3,4)": (16, (1, 4, 6, 7, 9, 10, 12, 15), (3, 4, 1, 3)),
}

# Bijection fuzz: per round, this many paths of each of the four kinds.
FUZZ_PER_KIND = 40
FUZZ_STEPS = (10, 80)
FUZZ_P1 = (2, 6)  # p' = 2p+1 family
FUZZ_P2 = (3, 6)  # p' = 2p-1 family

# Particle moves: corner-to-corner half paths (A = B = 2).
MOVES_PATHS = 60
MOVES_T2 = (6, 10)
MOVES_STEPS = (6, 60)


def round_rng(workload: str, seed: int, round_no: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_no}")


def coprime_pairs(max_pp: int) -> list[tuple[int, int]]:
    return [(p, pp) for pp in range(3, max_pp + 1) for p in range(2, pp) if gcd(p, pp) == 1]


def dark_floors(p: int, pp: int) -> list[int]:
    """Floors of the dark bands, floor(r p'/p) for 1 <= r < p."""
    return sorted({(r * pp) // p for r in range(1, p)})


def band_index(p: int, pp: int, b: int) -> int:
    """The r whose dark band has floor b."""
    for r in range(1, p):
        if (r * pp) // p == b:
            return r
    raise ValueError(f"b={b} is not a dark floor of ({p},{pp})")


def theorem1_character(t2: int, a2: int, b2: int) -> tuple[int, int, int, int]:
    """The character label (p, p', r, s) of the half-path space H^T_{A,B}."""
    if t2 % 2 == 0:
        t = t2 // 2
        return (t, 2 * t + 1, b2 // 2, a2)
    return ((t2 + 1) // 2, t2, a2 // 2, b2)


def half_labels(rnd: random.Random, t2: int) -> tuple[int, int]:
    """A random admissible doubled (A, B) pair for T."""
    if t2 % 2 == 0:
        return 2 * rnd.randint(1, t2 // 2), 2 * rnd.randint(1, t2 // 2 - 1)
    half = (t2 - 1) // 2
    return 2 * rnd.randint(1, half), 2 * rnd.randint(1, half)


# -- canonical path lines ----------------------------------------------------


def canonical(hs: list[int], lo: int) -> list[int]:
    """Store a tail-oscillating sequence exactly through its canonical
    horizon: the first even index from which it stays in {lo, lo+1}.
    """
    start = len(hs) - 1
    while start > 0 and hs[start - 1] in (lo, lo + 1):
        start -= 1
    horizon = start + start % 2
    out = list(hs[: horizon + 1])
    while len(out) <= horizon:
        out.append(lo + 1 if out[-1] == lo else lo)
    return out


def rsos_line(p: int, pp: int, a: int, b: int, hs: list[int]) -> str:
    return f"rsos p={p} pp={pp} a={a} b={b} h={','.join(map(str, hs))}"


def half_line(t2: int, a2: int, b2: int, hs: list[int]) -> str:
    return f"half T={t2} A={a2} B={b2} H={','.join(map(str, hs))}"


def rsos_walk(rnd: random.Random, pp: int, a: int, b: int, steps: int) -> list[int]:
    """A random unit-step walk on 1..p'-1 from a, led straight into the b band."""
    hs = [a]
    for _ in range(steps):
        h = hs[-1]
        hs.append(rnd.choice([x for x in (h - 1, h + 1) if 1 <= x <= pp - 1]))
    while hs[-1] > b + 1:
        hs.append(hs[-1] - 1)
    while hs[-1] < b:
        hs.append(hs[-1] + 1)
    return canonical(hs, b)


def _half_step_ok(t2: int, prev: int, h: int, nh: int) -> bool:
    # valleys are allowed only at integer (even doubled) heights
    return 2 <= nh <= t2 and not (prev == nh == h + 1 and h % 2 == 1)


def half_walk(rnd: random.Random, t2: int, a2: int, b2: int, steps: int) -> list[int]:
    """A random half-unit walk on doubled heights 2..T from A, led into the
    B band, never making a valley at an odd doubled height.
    """
    hs = [a2]

    def prev() -> int:
        return hs[-2] if len(hs) > 1 else a2 + 1

    for _ in range(steps):
        h = hs[-1]
        hs.append(rnd.choice([nh for nh in (h - 1, h + 1) if _half_step_ok(t2, prev(), h, nh)]))
    while hs[-1] not in (b2, b2 + 1):
        h = hs[-1]
        nh = h - 1 if h > b2 + 1 else h + 1
        if not _half_step_ok(t2, prev(), h, nh):
            nh = h - 1  # just came down to an odd height: one more step down first
        hs.append(nh)
    return canonical(hs, b2)


# -- rounds ------------------------------------------------------------------


# The golden-ratio step of the label sequences below.
GOLDEN = (5 ** 0.5 - 1) / 2


def spread_pick(options: list, key: str, index: int):
    """The index-th pick of a seeded low-discrepancy sequence over options:
    u + index * GOLDEN (mod 1), with u drawn from the key.  Consecutive picks
    land far apart, so a few rounds sample the options evenly and the work
    of a batch of rounds varies little from seed to seed.
    """
    u = random.Random(key).random()
    return options[int(len(options) * ((u + index * GOLDEN) % 1.0))]


def half_label_options(t2: int) -> list[tuple[int, int]]:
    """Every admissible doubled (A, B) pair for T, as ``half_labels`` draws them."""
    if t2 % 2 == 0:
        return [(2 * a, 2 * b) for a in range(1, t2 // 2 + 1) for b in range(1, t2 // 2)]
    half = (t2 - 1) // 2
    return [(2 * a, 2 * b) for a in range(1, half + 1) for b in range(1, half + 1)]


def theorem1_round(seed: int, round_no: int) -> list[tuple]:
    """("rsos", (p, p', a, b), N) and ("half", (T, A, B), N) checks.

    Each label space is sampled along its own seeded sequence, one step per
    round (``spread_pick``); the round's checks are then shuffled.
    """
    rnd = round_rng("theorem1-gf", seed, round_no)
    labels = []
    for p, pp in coprime_pairs(THEOREM1_MAX_PP):
        options = [(a, b) for a in range(1, pp) for b in dark_floors(p, pp)]
        a, b = spread_pick(options, f"theorem1-gf:{seed}:rsos:{p}:{pp}", round_no)
        labels.append(("rsos", (p, pp, a, b)))
    for t2 in THEOREM1_T2:
        options = half_label_options(t2)
        for k in range(THEOREM1_HALF_PER_T2):
            labels.append(("half", (t2, *spread_pick(
                options, f"theorem1-gf:{seed}:half:{t2}",
                THEOREM1_HALF_PER_T2 * round_no + k))))
    ops = [(kind, args, n) for kind, args in labels for n in THEOREM1_ORDERS]
    rnd.shuffle(ops)
    return ops


def character_labels(max_pp: int) -> list[tuple[int, int, int, int]]:
    return [
        (p, pp, r, s)
        for p, pp in coprime_pairs(max_pp)
        for r in range(1, p)
        for s in range(1, pp)
    ]


def series_round(seed: int, round_no: int) -> list[tuple]:
    """("theorem2", (T,), N), ("closed", (name,), N), ("product", (name,), N)
    and ("symmetry", (p, p', r, s), N) checks.
    """
    rnd = round_rng("character-series", seed, round_no)
    ops = [("theorem2", (t2,), n) for t2 in SERIES_T2 for n in SERIES_ORDERS]
    ops += [("closed", (name,), n) for name in CLOSED_FORMS for n in SERIES_ORDERS]
    ops += [("product", (name,), n) for name in PRODUCTS for n in SERIES_ORDERS]
    pool = character_labels(SERIES_MAX_PP)
    for _ in range(SERIES_SYMMETRY_LABELS):
        ops.append(("symmetry", rnd.choice(pool), rnd.choice(SERIES_ORDERS)))
    rnd.shuffle(ops)
    return ops


def fuzz_round(seed: int, round_no: int) -> list[tuple]:
    """("rsos", family, line) and ("half", family, line) round trips.

    Family 1 is p' = 2p+1 with even a, b; family 2 is p' = 2p-1 with even a
    and odd b.  Half paths of even T belong to family 1, of odd T to family 2.
    """
    rnd = round_rng("bijection-fuzz", seed, round_no)
    ops = []
    for _ in range(FUZZ_PER_KIND):
        steps = rnd.randint(*FUZZ_STEPS)
        p = rnd.randint(*FUZZ_P1)
        pp, a, b = 2 * p + 1, 2 * rnd.randint(1, p), 2 * rnd.randint(1, p - 1)
        ops.append(("rsos", 1, rsos_line(p, pp, a, b, rsos_walk(rnd, pp, a, b, steps))))

        steps = rnd.randint(*FUZZ_STEPS)
        p = rnd.randint(*FUZZ_P2)
        pp, a, b = 2 * p - 1, 2 * rnd.randint(1, p - 1), 2 * rnd.randint(1, p - 1) - 1
        ops.append(("rsos", 2, rsos_line(p, pp, a, b, rsos_walk(rnd, pp, a, b, steps))))

        steps = rnd.randint(*FUZZ_STEPS)
        t2 = 2 * rnd.randint(*FUZZ_P1)
        a2, b2 = half_labels(rnd, t2)
        ops.append(("half", 1, half_line(t2, a2, b2, half_walk(rnd, t2, a2, b2, steps))))

        steps = rnd.randint(*FUZZ_STEPS)
        t2 = 2 * rnd.randint(*FUZZ_P2) - 1
        a2, b2 = half_labels(rnd, t2)
        ops.append(("half", 2, half_line(t2, a2, b2, half_walk(rnd, t2, a2, b2, steps))))
    rnd.shuffle(ops)
    return ops


def moves_round(seed: int, round_no: int) -> list[tuple]:
    """("corner", T, line) paths for dissection and particle moves."""
    rnd = round_rng("particle-moves", seed, round_no)
    ops = []
    for _ in range(MOVES_PATHS):
        t2 = rnd.randint(*MOVES_T2)
        steps = rnd.randint(*MOVES_STEPS)
        ops.append(("corner", t2, half_line(t2, 2, 2, half_walk(rnd, t2, 2, 2, steps))))
    return ops
