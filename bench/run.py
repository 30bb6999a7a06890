"""The viracomb benchmark: one seeded workload, one process, one client.

    python3 bench/run.py --workload theorem1-gf --seed 1 --seconds 20 --trace 0

A closed loop runs the workload's operations one after another, with no
threads and no process pool, and checks every result exactly.  The program
is imported from ``src/`` of the checkout this file sits in, and receives
only the inputs ``gen.py`` draws from the seed.

With ``--trace 0`` the run measures for ``--seconds`` seconds and reports
the end-to-end metrics: operations per reference second, the set-up time
(median of several fresh processes, spread over the run, each from process
start through import and input generation), the share of operations that
succeeded, and peak resident memory.  Times are stated in reference seconds, by the reference
kernel run alongside (see ``reference.py``); the wall-clock figures are in
the detail line.  The run's inputs are a fixed batch of rounds drawn from
the seed: the first pass over it always completes and gives ``attempted``
and ``failed``, so both depend on the seed alone and not on the machine's
speed; further passes repeat the batch until the time is up, and each
repeated operation must end as it did the first time.  Throughput is the
operations of one pass over the reference seconds one pass takes, with
each input's time the mean over its runs.

With ``--trace 1`` the run does a fixed number of rounds.  Every item runs
once to warm the program's caches, then with spans around the program's
public functions, then without; the second and third runs are timed and
meet the same caches.  The run reports the per-layer metrics and the
tracing overhead (traced over untraced wall time); ``attempted`` and
``failed`` count the traced runs only.  The spans are written to
``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's metadata and details.  ``correct`` is false when the
program returned a wrong result; an operation that raised counts as failed
without making the run incorrect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 11
# Segments between two set-up probes.  The probes are spread over the run,
# so that their median does not rest on one moment of the machine's load.
PROBE_EVERY = 2
# Wall seconds of operations between two runs of the reference kernel.
SEGMENT_S = 0.75
# Rounds of inputs in the untraced run's batch: a first pass of six to ten
# seconds at the time the benchmark was defined, inside a 20-second run.
BATCH_ROUNDS = {"theorem1-gf": 3, "character-series": 4, "bijection-fuzz": 18,
                "particle-moves": 32}
# Rounds of inputs the traced run does; about ten seconds of untraced work
# at the time the benchmark was defined.
TRACE_ROUNDS = {"theorem1-gf": 4, "character-series": 6, "bijection-fuzz": 40,
                "particle-moves": 40}
# The traced pass stops early past this many seconds, so a run ends in time;
# the detail line says when it did.
TRACE_BUDGET_S = 100.0


def load_program():
    """Import viracomb from this checkout's src/, or exit without a result."""
    if not (SRC / "viracomb" / "__init__.py").is_file():
        sys.exit(f"bench: no program at {SRC / 'viracomb'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import viracomb

    if Path(viracomb.__file__).resolve().parent != (SRC / "viracomb").resolve():
        sys.exit(f"bench: imported viracomb from {viracomb.__file__}, not from {SRC}")
    import ops

    return ops


def git_sha() -> str | None:
    """The checked-out commit, or None outside a git repository."""
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest() -> str:
    """sha256 over the program's source files, which identifies the program
    where the checkout is not a git repository.
    """
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def input_sizes(workload: str) -> dict:
    import gen

    if workload == "theorem1-gf":
        return {"orders": gen.THEOREM1_ORDERS,
                "rsos_pairs": f"coprime 1 < p < p' <= {gen.THEOREM1_MAX_PP}, one (a, b) each",
                "half_T": [gen.THEOREM1_T2.start, gen.THEOREM1_T2.stop - 1],
                "half_labels_per_T": gen.THEOREM1_HALF_PER_T2}
    if workload == "character-series":
        return {"orders": gen.SERIES_ORDERS,
                "theorem2_T": [gen.SERIES_T2.start, gen.SERIES_T2.stop - 1],
                "closed_forms": list(gen.CLOSED_FORMS), "products": list(gen.PRODUCTS),
                "symmetry_labels_per_round": gen.SERIES_SYMMETRY_LABELS,
                "symmetry_max_pp": gen.SERIES_MAX_PP}
    if workload == "bijection-fuzz":
        return {"paths_per_kind_per_round": gen.FUZZ_PER_KIND,
                "kinds": ["rsos p'=2p+1", "rsos p'=2p-1", "half even T", "half odd T"],
                "walk_steps": gen.FUZZ_STEPS, "p_family1": gen.FUZZ_P1,
                "p_family2": gen.FUZZ_P2}
    return {"paths_per_round": gen.MOVES_PATHS, "T": gen.MOVES_T2,
            "walk_steps": gen.MOVES_STEPS}


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "optimize": sys.flags.optimize,
        "inputs": input_sizes(args.workload),
    }


# -- set-up ------------------------------------------------------------------


def probe_setup(args) -> float:
    """Seconds from starting a fresh process to its first operation being
    ready: interpreter start, import of the program and of the benchmark,
    and generation of the first round of inputs.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        sys.exit(f"bench: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - t0


# -- measurement -------------------------------------------------------------


def untraced(args, ops) -> tuple[dict, dict, object, bool]:
    make, run, op_name = ops.WORKLOADS[args.workload]
    outcome = ops.Outcome()  # the first pass over the batch
    repeat = ops.Outcome()  # the passes that repeat it
    kernels = [reference.kernel_seconds()]
    segments = []  # (operations, wall seconds) between consecutive kernel runs
    raw_s = ref_s = segment = 0.0
    seg_ops = 0
    seg_items = []  # (batch index, wall seconds) of the open segment
    item_ref_s = []  # per batch item: reference seconds over all its runs
    item_runs = []  # per batch item: how often it ran
    setup_raw, setup_ref = [], []

    def probe() -> None:
        # a set-up probe in reference seconds, by the kernel runs on either
        # side of it; follows a kernel run
        setup_raw.append(probe_setup(args))
        kernels.append(reference.kernel_seconds())
        setup_ref.append(setup_raw[-1] * reference.NOMINAL_S / ((kernels[-2] + kernels[-1]) / 2))

    def close_segment() -> None:
        # the segment's wall time in reference seconds, by the kernel runs
        # on either side of it
        nonlocal raw_s, ref_s, segment, seg_ops
        kernels.append(reference.kernel_seconds())
        scale = reference.NOMINAL_S / ((kernels[-2] + kernels[-1]) / 2)
        ref_s += segment * scale
        raw_s += segment
        for i, seconds in seg_items:
            item_ref_s[i] += seconds * scale
            item_runs[i] += 1
        seg_items.clear()
        done = outcome.attempted + repeat.attempted
        segments.append((done - seg_ops, segment))
        seg_ops, segment = done, 0.0
        if len(segments) % PROBE_EVERY == 0 and len(setup_raw) < SETUP_PROBES:
            probe()

    def timed(i: int, out) -> None:
        nonlocal segment
        t = time.perf_counter()
        run(batch[i], out)
        took = time.perf_counter() - t
        segment += took
        seg_items.append((i, took))
        if segment >= SEGMENT_S:
            close_segment()

    t0 = time.perf_counter()
    deadline = t0 + args.seconds
    # First pass: every operation of the batch once, counted, however long
    # it takes.  Each item's failures are kept for the repeats to match.
    batch, first_failed = [], []
    for r in range(BATCH_ROUNDS[args.workload]):
        for item in make(args.seed, r):
            batch.append(item)
            item_ref_s.append(0.0)
            item_runs.append(0)
            before = outcome.failed
            timed(len(batch) - 1, outcome)
            first_failed.append(outcome.failed - before)
    # Repeats until the time is up; an operation that ends otherwise than
    # on the first pass makes the run incorrect.
    passes, mismatches, first_mismatch = 1, 0, None
    while time.perf_counter() < deadline:
        for i, item in enumerate(batch):
            if time.perf_counter() >= deadline:
                break
            before = repeat.failed
            timed(i, repeat)
            if repeat.failed - before != first_failed[i]:
                mismatches += 1
                first_mismatch = first_mismatch or {
                    "input": repr(item), "first_pass_failed": first_failed[i],
                    "repeat_failed": repeat.failed - before}
        passes += 1
    if segment:
        close_segment()
    while len(setup_raw) < SETUP_PROBES:
        probe()
    wall = time.perf_counter() - t0

    executed = outcome.attempted + repeat.attempted
    # One pass over the whole batch, from each item's mean time: the last,
    # partial pass then does not weight the items it reached.
    pass_ref_s = sum(t / n for t, n in zip(item_ref_s, item_runs))
    metrics = {
        "ops_per_ref_s": {"value": outcome.attempted / pass_ref_s, "unit": "ops/ref_s"},
        "setup_s": {"value": statistics.median(setup_ref), "unit": "s"},
        "ok_share": {"value": 1 - outcome.failed / max(outcome.attempted, 1), "unit": "ratio"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    detail = {
        "operation": op_name,
        "ops_per_wall_s": executed / raw_s,
        "ops_per_ref_s_all_runs": executed / ref_s,
        "pass_ref_s": pass_ref_s,
        "batch_rounds": BATCH_ROUNDS[args.workload],
        "batch_operations": outcome.attempted,
        "operations_executed": executed,
        "passes_started": passes,
        "repeats_failed": repeat.failed,
        "repeats_ending_otherwise": mismatches,
        "first_repeat_ending_otherwise": first_mismatch,
        "measured_s": wall,
        "kernel_nominal_s": reference.NOMINAL_S,
        "kernel_runs_s": kernels,
        "segments": segments,
        "setup_wall_s": setup_raw,
        "setup_ref_s": setup_ref,
        "failed_share": outcome.failed / max(outcome.attempted, 1),
        "raised": outcome.raised,
        "wrong": outcome.wrong,
        "first_failure": outcome.first_failure,
    }
    correct = outcome.wrong == repeat.wrong == mismatches == 0
    return metrics, detail, outcome, correct


def traced(args, ops) -> tuple[dict, dict, object, bool]:
    import tracing

    make, run, op_name = ops.WORKLOADS[args.workload]
    outcome = ops.Outcome()  # the traced runs
    spare = ops.Outcome()  # the warm-up and untraced runs, checked but not counted
    tracer = tracing.Tracer()
    t_traced = t_plain = 0.0
    items_run = 0
    cut_short = False
    deadline = time.perf_counter() + TRACE_BUDGET_S
    items = (item for r in range(TRACE_ROUNDS[args.workload]) for item in make(args.seed, r))
    for item in items:
        if time.perf_counter() >= deadline:
            cut_short = True
            break
        run(item, spare)
        tracer.install()
        try:
            t = time.perf_counter()
            with tracer.request_span(f"bench.{args.workload}"):
                run(item, outcome)
            t_traced += time.perf_counter() - t
        finally:
            tracer.uninstall()
        t = time.perf_counter()
        run(item, spare)
        t_plain += time.perf_counter() - t
        items_run += 1
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in tracing.layer_metrics(tracer, t_traced / t_plain).items()}
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(spans_file)
    detail = {
        "operation": op_name,
        "trace_rounds": TRACE_ROUNDS[args.workload],
        "items_traced": items_run,
        "cut_short_by_budget": cut_short,
        "traced_s": t_traced,
        "untraced_s": t_plain,
        "spans": len(tracer.name),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "failed_share": outcome.failed / max(outcome.attempted, 1),
        "raised": outcome.raised,
        "wrong": outcome.wrong,
        "untraced_wrong": spare.wrong,
        "first_failure": outcome.first_failure or spare.first_failure,
        "self_time_by_span": tracing.self_time_table(tracer),
    }
    # a wrong result in any pass makes the run incorrect
    return metrics, detail, outcome, outcome.wrong == spare.wrong == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("theorem1-gf", "character-series", "bijection-fuzz",
                                 "particle-moves"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    ops = load_program()
    if args.probe_setup:
        ops.WORKLOADS[args.workload][0](args.seed, 0)
        print(time.perf_counter())
        return 0

    metrics, detail, outcome, correct = (traced if args.trace else untraced)(args, ops)
    print(json.dumps({"detail": {**metadata(args), **detail}}, default=list))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
