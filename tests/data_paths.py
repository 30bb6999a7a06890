"""Shared worked examples with independently known weights and traces.

RSOS_49 is a path in P^{4,9}_{8,6} of weight 74 whose image data under the
2p+1 map is known in full; RSOS_47 lives in P^{4,7}_{6,1} with weight 112
and a fully known 2p-1 trace.  HALF_* are the corresponding half-lattice
paths (doubled coordinates), and DISSECT_10/MINIMAL_10 are a dissection
example and its sector's minimal path for T=10.  `walk` draws seeded
random paths far longer than any worked example.
"""

RSOS_49 = (4, 9, 8, 6,
           [8, 7, 6, 5, 6, 5, 4, 3, 2, 3, 2, 1, 2, 3, 4, 5,
            4, 3, 4, 5, 6, 5, 6, 7, 6, 7, 6])
RSOS_49_WEIGHT = 74
RSOS_49_DOWN = [1, 3, 5, 7, 11, 17, 21]
RSOS_49_UP = [4, 12, 14, 18, 20, 22]
RSOS_49_CONTRIBS = [0, 0, 3, 1, 1, 2, 9, 9, 6, 11, 11, 9, 12]

RSOS_49_CUT = (4, 9, 8, 6,
               [8, 7, 6, 5, 4, 3, 2, 3, 2, 3, 4, 5, 4, 5, 6, 7, 6, 7, 6])
BIJ1_LAM = (9, 8, 5, 1)
BIJ1_MU = (13, 11, 7, 2)

HALF_8_IMAGE = (8, 8, 6,
                [8, 7, 6, 5, 4, 3, 2, 3, 2, 3, 4, 5, 6, 5, 4, 5, 6, 7, 6, 7,
                 6, 7, 6, 7, 6, 7, 8, 7, 6, 7, 6, 7, 6, 7, 6, 7, 8, 7, 6, 7,
                 6, 7, 8, 7, 6, 7, 6])
HALF_8_RAW_QUARTERS = 297
HALF_8_WEIGHT = 74

HALF_10 = (10, 4, 8,
           [4, 3, 2, 3, 2, 3, 4, 5, 6, 5, 4, 5, 6, 7, 8, 9, 8, 9, 10, 9,
            8, 9, 8, 7, 6, 7, 6, 7, 8, 9, 10, 9, 8, 9, 8, 9, 8])
HALF_10_RAW_QUARTERS = 274
HALF_10_GS_QUARTERS = 10
HALF_10_WEIGHT = 66

RSOS_47 = (4, 7, 6, 1,
           [6, 5, 6, 5, 6, 5, 4, 3, 4, 3, 4, 5, 4, 3, 2, 1, 2, 3,
            2, 3, 4, 5, 6, 5, 6, 5, 4, 3, 2, 1, 2, 3, 2, 1, 2, 1])
RSOS_47_WEIGHT = 112
RSOS_47_SCORING = [6, 11, 12, 14, 17, 18, 19, 21, 26, 28, 31, 32]

RSOS_47_CUT = (4, 7, 6, 1,
               [6, 5, 4, 5, 4, 3, 2, 3, 2, 3, 4, 5, 4, 3, 2, 3, 2, 1, 2, 1])
BIJ2_LAM = (12, 12, 11, 11, 8, 4, 4, 2)
BIJ2_K, BIJ2_M, BIJ2_C, BIJ2_D = 12, 4, 3, 5
BIJ2_MU = (4, 3, 1)
BIJ2_NU = (11, 8, 4, 4, 2)

HALF_7_CUT = (7, 2, 6,
              [2, 3, 4, 3, 2, 3, 4, 5, 6, 5, 4, 3, 2, 3, 4, 3, 2, 3, 4, 5,
               6, 5, 4, 5, 6])
HALF_7_INT = (7, 2, 6,
              [2, 3, 4, 5, 4, 3, 2, 3, 4, 5, 6, 5, 4, 3, 2, 3, 4, 5, 4, 3,
               2, 3, 4, 5, 6, 7, 6, 5, 4, 5, 6])
HALF_7_IMAGE = (7, 2, 6,
                [2, 3, 2, 3, 4, 5, 4, 3, 2, 3, 4, 5, 4, 5, 6, 5, 4, 3, 2, 3,
                 4, 5, 4, 3, 2, 3, 2, 3, 2, 3, 4, 5, 6, 7, 6, 7, 6, 5, 4, 5,
                 6, 7, 6, 7, 6])
HALF_7_RAW_QUARTERS = 458
HALF_7_GS_QUARTERS = 10
HALF_7_WEIGHT = 112

DISSECT_10 = (10, 2, 2,
              [2, 3, 4, 5, 6, 7, 6, 7, 8, 9, 8, 7, 6, 5, 4, 5, 6, 5, 4, 5,
               6, 7, 8, 7, 6, 7, 8, 7, 6, 5, 4, 3, 2, 3, 4, 5, 6, 7, 6, 5,
               4, 5, 6, 7, 6, 7, 6, 5, 4, 3, 2, 3, 2])
DISSECT_10_CHARGES = [1, 7, 2, 4, 2, 5, 3, 1]  # stored peaks; the tail adds 1s
DISSECT_10_SECTOR = (2, 1, 1, 1, 0, 1, 0)

MINIMAL_10 = [2, 3, 4, 5, 6, 7, 8, 9, 8, 7, 6, 5, 4, 3, 2, 3, 4, 5, 6, 7,
              6, 5, 4, 3, 2, 3, 4, 5, 6, 5, 4, 3, 2, 3, 4, 5, 4, 3, 2, 3,
              4, 3, 2, 3, 4, 3, 2]

# move sequences: a charge 3/2 particle walking up a larger particle's slope,
# each step raising the weight by one
MOVES_9 = [
    [2, 3, 4, 5, 6, 7, 8, 9, 8, 7, 6, 5, 4, 3, 2, 3, 4, 5, 4, 3, 2],
    [2, 3, 4, 5, 6, 7, 8, 9, 8, 7, 6, 5, 4, 5, 6, 7, 6, 5, 4, 3, 2],
    [2, 3, 4, 5, 6, 7, 8, 9, 8, 7, 6, 7, 8, 9, 8, 7, 6, 5, 4, 3, 2],
    [2, 3, 4, 5, 6, 7, 6, 5, 4, 5, 6, 7, 8, 9, 8, 7, 6, 5, 4, 3, 2],
    [2, 3, 4, 5, 4, 3, 2, 3, 4, 5, 6, 7, 8, 9, 8, 7, 6, 5, 4, 3, 2],
]
MOVES_8 = [
    [2, 3, 4, 5, 6, 7, 8, 7, 6, 5, 4, 3, 2, 3, 4, 5, 4, 3, 2],
    [2, 3, 4, 5, 6, 7, 8, 7, 6, 5, 4, 5, 6, 7, 6, 5, 4, 3, 2],
    [2, 3, 4, 5, 6, 7, 6, 5, 4, 5, 6, 7, 8, 7, 6, 5, 4, 3, 2],
    [2, 3, 4, 5, 4, 3, 2, 3, 4, 5, 6, 7, 8, 7, 6, 5, 4, 3, 2],
]


def walk(rnd, start, lo, hi, b, steps, ok=lambda prev, h, nh: True):
    """A random unit-step walk on lo..hi from start, then led into the tail
    band {b, b+1}; ok(prev, h, next) vetoes steps (prev of the start is
    start + 1).
    """
    hs = [start]

    def step_ok(nh):
        return lo <= nh <= hi and ok(hs[-2] if len(hs) > 1 else start + 1, hs[-1], nh)

    for _ in range(steps):
        hs.append(rnd.choice([nh for nh in (hs[-1] - 1, hs[-1] + 1) if step_ok(nh)]))
    while hs[-1] not in (b, b + 1):
        nh = hs[-1] - 1 if hs[-1] > b + 1 else hs[-1] + 1
        hs.append(nh if step_ok(nh) else hs[-1] - 1)
    return hs


def half_ok(prev, h, nh):
    return not (prev == nh == h + 1 and h % 2 == 1)  # valleys at integer heights only
