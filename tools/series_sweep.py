"""Cost of the bosonic and fermionic characters, by order.  It prints the
median milliseconds of one `fermionic_character_12` call at T = 6, 10 and
14, of one `sector_gf` call on a T = 10 sector with three particles, and of
one `bosonic_character` call on the label the T = 10 sum is checked
against (`theorem1_label(10, 1, 1)`), at N = 60, 120, 240 and 480, and for
each row the log-log slope from the first order to the last.  The fermionic
walk visits about sqrt(2N) charges and its packed term lists hold about N
coefficients of O(sqrt(N)) bits each; the bosonic side is one pentagonal
pass, O(N^1.5).

    PYTHONPATH=src python3 tools/series_sweep.py [--max-order 480]
"""

import argparse
import gc
import math
import statistics
import time

from viracomb.characters import bosonic_character, fermionic_character_12, theorem1_label
from viracomb.particles import sector_gf

ORDERS = (60, 120, 240, 480)
SECTOR = (1, 1, 1, 0, 0, 0, 0)  # T = 10, minimal weight 25
LABEL = theorem1_label(10, 1, 1)
ROWS = (
    ("fermionic T=6", lambda n: fermionic_character_12(6, n)),
    ("fermionic T=10", lambda n: fermionic_character_12(10, n)),
    ("fermionic T=14", lambda n: fermionic_character_12(14, n)),
    ("sector_gf T=10 n=(1,1,1,0,0,0,0)", lambda n: sector_gf(10, SECTOR, n)),
    (f"bosonic ({LABEL.p},{LABEL.p_prime},{LABEL.r},{LABEL.s})",
     lambda n: bosonic_character(LABEL, n)),
)
ROUNDS = 5  # timings per cell


def timed_ms(call, order: int) -> float:
    t0 = time.perf_counter()
    call(order)
    return (time.perf_counter() - t0) * 1e3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-order", type=int, default=ORDERS[-1])
    args = parser.parse_args()
    orders = [n for n in ORDERS if n <= args.max_order]
    times = {(name, n): [] for name, _ in ROWS for n in orders}
    # the rounds spread a cell's samples over the whole run, so a stretch
    # of a loaded machine does not decide a cell
    gc.disable()
    try:
        for _ in range(ROUNDS):
            for name, call in ROWS:
                for n in orders:
                    times[name, n].append(timed_ms(call, n))
            gc.collect()
    finally:
        gc.enable()
    print(f"{'series':>34} " + " ".join(f"{f'N={n}':>8}" for n in orders)
          + "   slope   (median ms per call)")
    for name, _ in ROWS:
        ms = [statistics.median(times[name, n]) for n in orders]
        slope = (math.log(ms[-1] / ms[0]) / math.log(orders[-1] / orders[0])
                 if len(orders) > 1 else float("nan"))
        print(f"{name:>34} " + " ".join(f"{t:>8.2f}" for t in ms) + f"   {slope:5.2f}")


if __name__ == "__main__":
    main()
