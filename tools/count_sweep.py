"""Cost of counting paths by weight, and of listing them, by order.  For a
fixed set of RSOS labels (p, p', a, b) and half-path labels (T, A, B) it
prints two tables of median milliseconds: one `generating_function` call,
the counting search with no path listed, at N = 12, 16, 60, 120, 240 and
480; and listing every path of a fresh path set, its walk built from the
counting tables included and the counting itself not, at N = 8, 12, 16 and
20.  The counting cost should grow no faster than the number of live
search states times N, and the listing cost with the number of paths
listed.  At N = 12 and 16, the orders of the `theorem1-gf` benchmark
workload, a search's fixed cost, the part that does not grow with its
states, is a large share of it.

    PYTHONPATH=src python3 tools/count_sweep.py [--max-order 480]
"""

import argparse
import gc
import statistics
import time

from viracomb import halfpath, rsos

ORDERS = (12, 16, 60, 120, 240, 480)
LIST_ORDERS = (8, 12, 16, 20)
LABELS = ((rsos, (5, 11, 8, 2)), (rsos, (6, 13, 3, 10)), (rsos, (4, 9, 8, 6)),
          (halfpath, (8, 2, 2)), (halfpath, (13, 6, 4)), (halfpath, (12, 2, 2)))
ROUNDS = 5  # timings per cell


def counted_ms(model, label: tuple, order: int) -> float:
    t0 = time.perf_counter()
    model.generating_function(*label, order)
    return (time.perf_counter() - t0) * 1e3


def listed_ms(model, label: tuple, order: int) -> float:
    paths = model.enumerate_paths(*label, order)
    t0 = time.perf_counter()
    for _ in paths:
        pass
    return (time.perf_counter() - t0) * 1e3


def table(timed, orders: list[int], what: str) -> None:
    """Time every label at every order ROUNDS times and print the medians."""
    times = {(model, label, n): [] for model, label in LABELS for n in orders}
    # the rounds spread a cell's samples over the whole run, so a stretch
    # of a loaded machine does not decide a cell
    gc.disable()
    try:
        for _ in range(ROUNDS):
            for model, label, n in times:
                times[model, label, n].append(timed(model, label, n))
            gc.collect()
    finally:
        gc.enable()
    print(f"{'model':>8} {'label':>14} " + " ".join(f"{f'N={n}':>8}" for n in orders)
          + f"   (median ms per {what})")
    for model, label in LABELS:
        name = model.__name__.rsplit(".", 1)[-1]
        cells = " ".join(f"{statistics.median(times[model, label, n]):>8.2f}" for n in orders)
        print(f"{name:>8} {str(label).replace(' ', ''):>14} {cells}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-order", type=int, default=ORDERS[-1])
    args = parser.parse_args()
    table(counted_ms, [n for n in ORDERS if n <= args.max_order], "count")
    table(listed_ms, [n for n in LIST_ORDERS if n <= args.max_order], "listing")


if __name__ == "__main__":
    main()
