"""Cost of counting paths by weight, by order.  For a fixed set of RSOS
labels (p, p', a, b) and half-path labels (T, A, B) it prints the median
milliseconds of one `generating_function` call, the counting search with no
path listed, at N = 60, 120, 240 and 480.  The cost should grow no faster
than the number of live search states times N.

    PYTHONPATH=src python3 tools/count_sweep.py [--max-order 480]
"""

import argparse
import gc
import statistics
import time

from viracomb import halfpath, rsos

ORDERS = (60, 120, 240, 480)
LABELS = ((rsos, (5, 11, 8, 2)), (rsos, (6, 13, 3, 10)), (rsos, (4, 9, 8, 6)),
          (halfpath, (8, 2, 2)), (halfpath, (13, 6, 4)), (halfpath, (12, 2, 2)))
ROUNDS = 5  # timings per cell


def timed_ms(model, label: tuple, order: int) -> float:
    t0 = time.perf_counter()
    model.generating_function(*label, order)
    return (time.perf_counter() - t0) * 1e3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-order", type=int, default=ORDERS[-1])
    args = parser.parse_args()
    orders = [n for n in ORDERS if n <= args.max_order]
    times = {(model, label, n): [] for model, label in LABELS for n in orders}
    # the rounds spread a cell's samples over the whole run, so a stretch
    # of a loaded machine does not decide a cell
    gc.disable()
    try:
        for _ in range(ROUNDS):
            for model, label, n in times:
                times[model, label, n].append(timed_ms(model, label, n))
            gc.collect()
    finally:
        gc.enable()
    print(f"{'model':>8} {'label':>14} " + " ".join(f"{f'N={n}':>8}" for n in orders)
          + "   (median ms per count)")
    for model, label in LABELS:
        name = model.__name__.rsplit(".", 1)[-1]
        cells = " ".join(f"{statistics.median(times[model, label, n]):>8.1f}" for n in orders)
        print(f"{name:>8} {str(label).replace(' ', ''):>14} {cells}")


if __name__ == "__main__":
    main()
