"""Self-tests for the benchmark's generators, checkers and tracer.

    python3 bench/selftest.py

They import the program from ``src/`` of this checkout, like the benchmark.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import ops  # noqa: E402
import tracing  # noqa: E402
from viracomb import bijections, characters, halfpath, particles, rsos  # noqa: E402
from viracomb.halfpath import HalfPath  # noqa: E402
from viracomb.rsos import RsosPath  # noqa: E402

ROUNDS = {name: make for name, (make, _, _) in ops.WORKLOADS.items()}


def digest(seed: int, rounds: int = 3) -> str:
    h = hashlib.sha256()
    for name, make in sorted(ROUNDS.items()):
        for r in range(rounds):
            h.update(f"{name}:{r}:{make(seed, r)!r}\n".encode())
    return h.hexdigest()


class Generators(unittest.TestCase):
    def test_same_seed_gives_byte_identical_inputs(self):
        here = digest(11)
        self.assertEqual(here, digest(11))
        self.assertNotEqual(here, digest(12))
        # a fresh interpreter with another string-hash seed draws the same bytes
        code = f"import sys; sys.path[:0] = {[str(BENCH)]!r}; import selftest; " \
               "print(selftest.digest(11))"
        env = dict(os.environ, PYTHONHASHSEED="12345")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, cwd=ROOT, check=True, timeout=120)
        self.assertEqual(out.stdout.strip(), here)

    def test_fuzz_paths_parse_canonically_in_their_family(self):
        for r in range(3):
            for kind, family, line in gen.fuzz_round(4, r):
                if kind == "rsos":
                    path = RsosPath.from_line(line)
                    self.assertEqual(path.to_line(), line)
                    self.assertEqual(path.p_prime, 2 * path.p + (1 if family == 1 else -1))
                    self.assertEqual(path.a % 2, 0)
                    self.assertEqual(path.b % 2, 0 if family == 1 else 1)
                    self.assertIn(path.b, rsos.dark_floors(path.p, path.p_prime))
                else:
                    path = HalfPath.from_line(line)
                    self.assertEqual(path.to_line(), line)
                    self.assertEqual(path.t2 % 2, 0 if family == 1 else 1)
                    self.assertTrue(halfpath.theorem1_domain(path.t2, path.a2, path.b2))

    def test_corner_paths_parse_canonically(self):
        for r in range(3):
            for _, t2, line in gen.moves_round(4, r):
                path = HalfPath.from_line(line)
                self.assertEqual(path.to_line(), line)
                self.assertEqual((path.t2, path.a2, path.b2), (t2, 2, 2))

    def test_labels_are_admissible(self):
        for r in range(3):
            for kind, args, n in gen.theorem1_round(4, r):
                self.assertIn(n, gen.THEOREM1_ORDERS)
                if kind == "rsos":
                    p, pp, a, b = args
                    self.assertIn(b, rsos.dark_floors(p, pp))
                    self.assertEqual(gen.band_index(p, pp, b), rsos.tail_band_index(p, pp, b))
                    characters.CharacterLabel(p, pp, gen.band_index(p, pp, b), a)
                else:
                    t2, a2, b2 = args
                    self.assertTrue(halfpath.theorem1_domain(t2, a2, b2))
                    self.assertEqual(
                        gen.theorem1_character(t2, a2, b2),
                        dataclasses.astuple(characters.theorem1_label(t2, a2 // 2, b2 // 2)))
            for kind, args, n in gen.series_round(4, r):
                self.assertIn(n, gen.SERIES_ORDERS)
                if kind == "symmetry":
                    p, pp, r_, s = args
                    characters.CharacterLabel(p, pp, r_, s)
                    characters.CharacterLabel(p, pp, p - r_, pp - s)
                elif kind == "theorem2":
                    self.assertEqual(gen.theorem1_character(args[0], 2, 2), dataclasses.astuple(
                        characters.theorem1_label(args[0], 1, 1)))


class Checkers(unittest.TestCase):
    def test_perturbed_series_is_a_failure(self):
        from viracomb.qseries import QSeries

        good = QSeries.from_coeffs([1, 1, 2, 3, 5, 7], 5)
        bad = QSeries.from_coeffs([1, 1, 2, 4, 5, 7], 5)
        out = ops.Outcome()
        ops._check_series(out, "t", "same", lambda: (good, good, 5))
        self.assertEqual((out.attempted, out.failed), (1, 0))
        ops._check_series(out, "t", "perturbed", lambda: (good, bad, 5))
        self.assertEqual((out.attempted, out.wrong), (2, 1))
        self.assertEqual(out.first_failure["power"], 3)
        self.assertEqual(out.first_failure["input"], "perturbed")
        ops._check_series(out, "t", "short", lambda: (good, good.truncate(4), 5))
        self.assertEqual(out.wrong, 2)

    def test_theorem1_check_catches_a_wrong_series(self):
        out = ops.Outcome()
        ops.run_theorem1(("rsos", (3, 5, 2, 1), 8), out)
        self.assertEqual(out.failed, 0)
        real = rsos.generating_function

        def off_by_one(*args):
            s = real(*args)
            return dataclasses.replace(s, coeffs=s.coeffs[:-1] + (s.coeffs[-1] + 1,))

        with mock.patch.object(rsos, "generating_function", off_by_one):
            ops.run_theorem1(("rsos", (3, 5, 2, 1), 8), out)
        self.assertEqual(out.wrong, 1)
        self.assertEqual(out.first_failure["power"], 8)

    def test_perturbed_round_trip_is_a_failure(self):
        line = next(line for kind, fam, line in gen.fuzz_round(2, 0)
                    if kind == "rsos" and fam == 1)
        out = ops.Outcome()
        ops.run_fuzz(("rsos", 1, line), out)
        self.assertEqual((out.attempted, out.failed), (1, 0))
        path = RsosPath.from_line(line)
        # a result one tail oscillation longer reads as a different line
        longer = RsosPath(path.p, path.p_prime, path.a, path.b,
                          path.heights + (path.heights[-2], path.heights[-1]))
        with mock.patch.object(bijections, "bij1_inverse", lambda image: longer):
            ops.run_fuzz(("rsos", 1, line), out)
        self.assertEqual(out.wrong, 1)
        self.assertEqual(out.first_failure["stage"], "bij1 round trip")
        self.assertEqual(out.first_failure["input"], line)
        with mock.patch.object(bijections, "bij1_forward", side_effect=RuntimeError("boom")):
            ops.run_fuzz(("rsos", 1, line), out)
        self.assertEqual((out.attempted, out.raised), (3, 1))

    def test_move_check_stands_without_the_program_asserts(self):
        # under python -O apply_move checks nothing; the benchmark still must
        line = next(line for _, _, line in gen.moves_round(1, 0)
                    if particles.enumerate_moves(HalfPath.from_line(line)))
        out = ops.Outcome()
        with mock.patch.object(particles, "apply_move", lambda path, move: path):
            ops.run_moves(("corner", 0, line), out)
        self.assertGreater(out.wrong, 0)
        self.assertEqual(out.wrong, out.attempted)


class KnownMoveDefect(unittest.TestCase):
    """enumerate_moves lists a move that apply_move cannot enact."""

    LINE = "half T=8 A=2 B=2 H=2,3,4,5,6,7,8,7,6,7,6,5,4,5,6,7,8,7,6,5,4,5,4,5,4,3,2"

    def test_listed_move_breaks_weight_and_sector(self):
        path = HalfPath.from_line(self.LINE)
        self.assertEqual(halfpath.weight(path), 47)
        self.assertEqual(particles.dissect(path).sector, (0, 0, 1, 0, 1))
        move = next(m for m in particles.enumerate_moves(path)
                    if m.particle.peak == 16 and m.owner.peak == 6)
        self.assertEqual(move.particle.charge2, 4)  # a charge-2 particle
        self.assertEqual(particles._move_plan(path, move.particle, move.owner), ("shift", 2))
        seq = [path.height(i) for i in range(path.horizon + 2 * 4 + 9)]
        moved = HalfPath.of(8, 2, 2, particles._shift_particle(seq, 2, 4))
        self.assertEqual(halfpath.weight(moved), 44)
        self.assertEqual(particles.dissect(moved).sector, (2, 0, 0, 0, 1))

    def test_benchmark_counts_it_as_failed(self):
        out = ops.Outcome()
        ops.run_moves(("corner", 8, self.LINE), out)
        self.assertEqual((out.attempted, out.failed), (4, 1))
        self.assertIn("move peak=16 owner=6", out.first_failure["input"])


class Tracing(unittest.TestCase):
    def test_spans_nest_and_originals_come_back(self):
        originals = (rsos.weight, characters.pochhammer_inf_inverse, RsosPath.of,
                     rsos.RsosPath.__dict__["to_line"])
        tr = tracing.Tracer()
        tr.install()
        try:
            self.assertIsNot(rsos.weight, originals[0])
            self.assertIsNot(characters.pochhammer_inf_inverse, originals[1])
            with tr.request_span("bench.test"):
                ops.run_theorem1(("rsos", (3, 5, 2, 1), 6), ops.Outcome())
        finally:
            tr.uninstall()
        self.assertEqual((rsos.weight, characters.pochhammer_inf_inverse, RsosPath.of,
                          rsos.RsosPath.__dict__["to_line"]), originals)
        names = [tr.names[i] for i in tr.name]
        self.assertEqual(names[0], "bench.test")
        self.assertIn("rsos.enumerate_paths", names)
        self.assertIn("characters.bosonic_character", names)
        self.assertNotIn("rsos.RsosPath.height", names)
        self.assertTrue(all(p < i for i, p in enumerate(tr.parent)))
        self.assertEqual(set(tr.request), {0})
        own = tr.self_times()
        self.assertEqual(sum(own), tr.end[0] - tr.start[0])
        metrics = tracing.layer_metrics(tr, 1.0)
        self.assertEqual(metrics["rsos.enumerate.calls"], (1, "count"))
        self.assertGreater(metrics["rsos.enumerate.paths"][0], 0)
        self.assertEqual(metrics["bijections.bij1_forward.calls"], (0, "count"))

    def test_layer_metrics_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        self.assertEqual(declared, tracing.layer_metric_names())


class Contract(unittest.TestCase):
    @staticmethod
    def result(seconds: int) -> dict:
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "particle-moves", "--seed", "3",
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, check=True, timeout=170)
        return json.loads(out.stdout.splitlines()[-1])

    def test_run_prints_every_end_to_end_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        result = self.result(1)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in spec["end_to_end"]})
        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_counts_depend_on_the_seed_alone(self):
        # a longer run repeats the batch more often, but counts it once
        short, long = self.result(1), self.result(16)
        self.assertTrue(short["correct"] and long["correct"])
        self.assertEqual((short["attempted"], short["failed"]),
                         (long["attempted"], long["failed"]))

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "theorem1-gf", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=tmp, timeout=170)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
