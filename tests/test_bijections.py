import contextlib
import dataclasses
import itertools
import random
import re
import statistics
from dataclasses import astuple
from unittest import mock

import pytest

from viracomb import bijections
from viracomb import halfpath as hp
from viracomb import lattice, rsos, verify
from viracomb.bijections import (
    BijectionDomainError,
    bij1_forward,
    bij1_inverse,
    bij2_forward,
    bij2_inverse,
    forward,
    inverse,
)
from viracomb.halfpath import HalfPath
from viracomb.lattice import InvalidPathError
from viracomb.rsos import RsosPath

from data_paths import (
    BIJ1_LAM,
    BIJ1_MU,
    BIJ2_C,
    BIJ2_D,
    BIJ2_K,
    BIJ2_LAM,
    BIJ2_M,
    BIJ2_MU,
    BIJ2_NU,
    HALF_7_CUT,
    HALF_7_IMAGE,
    HALF_7_INT,
    HALF_8_IMAGE,
    HALF_10,
    RSOS_47,
    RSOS_47_CUT,
    RSOS_49,
    RSOS_49_CUT,
    half_ok,
    walk,
)
from oracles import BIJECTION_DOMAINS, PEAK, VALLEY, classify, ground_state, pair_runs


def test_bij1_golden_trace():
    path = RsosPath.of(*RSOS_49)
    image, trace = bij1_forward(path)
    assert trace.n == 4
    assert trace.lam == BIJ1_LAM
    assert trace.mu == BIJ1_MU
    assert trace.h_cut == RsosPath.of(*RSOS_49_CUT)
    assert image == HalfPath.of(*HALF_8_IMAGE)
    assert hp.weight(image) == rsos.weight(path) == 74


def test_bij1_golden_inverse():
    assert bij1_inverse(HalfPath.of(*HALF_8_IMAGE)) == RsosPath.of(*RSOS_49)


def test_bij1_particle_free_path():
    path = RsosPath.of(2, 5, 2, 2, [2])
    image, trace = bij1_forward(path)
    assert trace.n == 0 and trace.lam == () and trace.mu == ()
    assert image == ground_state(4, 2, 2)
    back = bij1_inverse(image)
    assert back == path


def test_bij1_domain_errors():
    with pytest.raises(BijectionDomainError):
        bij1_forward(RsosPath.of(4, 7, 6, 1, [6, 5, 4, 3, 2, 1]))  # wrong family
    with pytest.raises(BijectionDomainError):
        bij1_forward(RsosPath.of(4, 9, 7, 6, [7, 6]))  # odd start
    with pytest.raises(BijectionDomainError):
        bij1_inverse(HalfPath.of(7, 2, 6, [2, 3, 4, 5, 6]))  # odd doubled T


def test_bij2_golden_trace():
    path = RsosPath.of(*RSOS_47)
    image, trace = bij2_forward(path)
    assert trace.n == 8
    assert trace.lam == BIJ2_LAM
    assert (trace.k, trace.m, trace.c, trace.d) == (BIJ2_K, BIJ2_M, BIJ2_C, BIJ2_D)
    assert trace.mu == BIJ2_MU
    assert trace.nu == BIJ2_NU
    assert trace.h_cut == RsosPath.of(*RSOS_47_CUT)
    assert trace.h_hat_cut == HalfPath.of(*HALF_7_CUT)
    assert trace.h_hat_int == HalfPath.of(*HALF_7_INT)
    assert image == HalfPath.of(*HALF_7_IMAGE)
    assert hp.weight(image) == rsos.weight(path) == 112


def test_bij2_golden_inverse():
    assert bij2_inverse(HalfPath.of(*HALF_7_IMAGE)) == RsosPath.of(*RSOS_47)


def test_bij2_sea_only_path():
    # no particle carries a positive label: nothing is removed
    path = RsosPath.of(3, 5, 2, 1, [2, 1])
    image, trace = bij2_forward(path)
    assert trace.n == 0 and trace.c == 0 and trace.nu == ()
    assert bij2_inverse(image) == path


def test_bij2_domain_errors():
    with pytest.raises(BijectionDomainError):
        bij2_forward(RsosPath.of(4, 9, 8, 6, [8, 7, 6]))  # wrong family
    with pytest.raises(BijectionDomainError):
        bij2_forward(RsosPath.of(4, 7, 6, 2, [6, 5, 4, 3, 2]))  # even tail
    with pytest.raises(BijectionDomainError):
        bij2_inverse(HalfPath.of(8, 2, 2, [2]))  # even doubled T


def test_bij2_inverse_rejects_corrupted_input():
    # every validated half path is in the image, so corruption means a
    # constraint-violating sequence, and no such path can be built to reach
    # the map: `of` and the raw constructor both refuse it with the same
    # message, stored canonically or one tail oscillation too long
    bad = (2, 3, 4, 3, 4)  # valley at height 3/2
    message = r"^valley at non-integer height 3/2 \(doubled position 3\)$"
    for stored in (bad, bad + (5, 4)):
        with pytest.raises(hp.InvalidHalfPathError, match=message):
            HalfPath.of(7, 2, 4, stored)
        with pytest.raises(hp.InvalidHalfPathError, match=message):
            HalfPath(7, 2, 4, stored)


def test_inverses_refuse_non_canonical_storage():
    # storage past or short of the horizon is refused when the path is
    # built, so no map reads it; the same paths stored canonically map and
    # map back
    for stored, canonical, image in [
        ((4, 3, 2, 3, 2), (4, 3, 2), "rsos p=5 pp=9 a=2 b=3 h=2,3,4"),
        ((4, 3, 2, 3), (4, 3, 2), "rsos p=5 pp=9 a=2 b=3 h=2,3,4"),
        ((2, 3, 4, 3, 2, 3, 2), (2, 3, 4, 3, 2), None),
        ((2, 3), (2,), None),
    ]:
        t2 = 9 if image else 8
        with pytest.raises(InvalidPathError, match="not stored canonically"):
            HalfPath(t2, stored[0], 2, stored)
        path = HalfPath(t2, stored[0], 2, canonical)
        assert path == HalfPath.of(t2, stored[0], 2, stored)
        back = inverse(path)
        assert image is None or back.to_line() == image
        assert forward(back)[0] == path


def test_forwards_refuse_non_canonical_storage():
    # one oscillation past the horizon, storage ending outside the tail
    # band, and two oscillations past it, for both families: storage that
    # `RsosPath.of` refuses is refused with its message, and storage it
    # would store otherwise as not canonical, when the path is built, so no
    # forward map reads it
    for p, pp, a, b, stored, message in [
            (3, 7, 6, 4, (6, 5, 4, 3, 4, 5, 4), None),
            (5, 11, 10, 8, (10, 9, 8, 7), "stored sequence must end inside the tail band, got 7"),
            (4, 7, 6, 1, (6, 5, 4, 3, 2, 1, 2, 1, 2), None)]:
        if message is None:
            hs = ",".join(map(str, stored))
            message = re.escape(f"path not stored canonically: rsos p={p} pp={pp} a={a} b={b} h={hs}")
        else:
            with pytest.raises(InvalidPathError, match=f"^{message}$"):
                RsosPath.of(p, pp, a, b, stored)
        with pytest.raises(InvalidPathError, match=f"^{message}$"):
            RsosPath(p, pp, a, b, stored)
    # storage that leaves the band and comes back is the canonical storage
    # of another path, and maps as that path
    path = RsosPath(3, 7, 6, 4, (6, 5, 4, 3, 4, 3, 4))
    assert path == RsosPath.of(3, 7, 6, 4, path.heights)
    assert inverse(forward(path)[0]) == path


@pytest.mark.parametrize("p,a,b", [(2, 2, 2), (3, 4, 2), (4, 6, 4)])
def test_bij1_roundtrip_small(p, a, b):
    pp = 2 * p + 1
    for path in rsos.enumerate_paths(p, pp, a, b, 8):
        image, _ = bij1_forward(path)
        assert hp.weight(image) == rsos.weight(path)
        assert bij1_inverse(image) == path
    for half in hp.enumerate_paths(2 * p, a, b, 8):
        again, _ = bij1_forward(bij1_inverse(half))
        assert again == half


@pytest.mark.parametrize("p,a,bb", [(3, 2, 4), (4, 4, 2), (4, 6, 6)])
def test_bij2_roundtrip_small(p, a, bb):
    pp = 2 * p - 1
    for path in rsos.enumerate_paths(p, pp, a, bb - 1, 8):
        image, _ = bij2_forward(path)
        assert hp.weight(image) == rsos.weight(path)
        assert bij2_inverse(image) == path
    for half in hp.enumerate_paths(pp, bb, a, 8):
        again, _ = bij2_forward(bij2_inverse(half))
        assert again == half


def test_bij2_accretion_vertices_count_their_straights():
    # the j-th accretion vertex from the right sees exactly 2j straight
    # vertices to its right, or 2j-1 when it is itself straight-down
    from viracomb.bijections import _accretion_positions

    for path in rsos.enumerate_paths(4, 7, 6, 1, 8):
        _, trace = bij2_forward(path)
        hint = trace.h_hat_int
        straights = [i for i in range(hint.horizon + 1)
                     if hint.height(i - 1) != hint.height(i + 1)]
        for j, pos in enumerate(_accretion_positions(hint.horizon, hint._scan[2]), start=1):
            right = sum(1 for s in straights if s > pos)
            down = hint.height(pos - 1) > hint.height(pos) > hint.height(pos + 1)
            assert right == (2 * j - 1 if down else 2 * j), (path, pos, j)


def test_bij1_cut_has_no_adjacent_scoring_and_particles_start_on_turns():
    for path in rsos.enumerate_paths(3, 7, 4, 4, 8):
        _, trace = bij1_forward(path)
        xs = [v.x for v in classify(trace.h_cut) if v.scoring]
        assert all(y - x > 1 for x, y in zip(xs, xs[1:]))
        info = {v.x: v for v in classify(path)}
        scoring = sorted(x for x, v in info.items() if v.scoring)
        runs = []
        for x in scoring:
            if runs and runs[-1][-1] == x - 1:
                runs[-1].append(x)
            else:
                runs.append([x])
        for run in runs:
            for first in run[0:len(run) - len(run) % 2:2]:
                assert info[first].shape in (PEAK, VALLEY)


def _scans(call, arg):
    """The result of call(arg) and how many times it scanned heights: vertex
    scans of frames (`RsosPath._scan_frame` and `HalfPath._scan_frame`), raw
    peak-and-valley scans (`lattice.turns`), and path reads
    (`lattice.Path._read`, made when a path is built from outside a map).
    """
    with mock.patch.object(RsosPath, "_scan_frame", wraps=RsosPath._scan_frame) as rs, \
            mock.patch.object(HalfPath, "_scan_frame", wraps=HalfPath._scan_frame) as hs, \
            mock.patch.object(lattice, "turns", wraps=lattice.turns) as t, \
            mock.patch.object(lattice.Path, "_read", autospec=True,
                              side_effect=lattice.Path._read) as reads:
        out = call(arg)
    return out, (rs.call_count + hs.call_count, t.call_count, reads.call_count)


@pytest.mark.parametrize("half", [HALF_8_IMAGE, HALF_10, HALF_7_CUT, HALF_7_INT,
                                  HALF_7_IMAGE])
def test_each_map_scans_each_path_once(half):
    # the input was read when it was built; each map reads no path, and
    # makes one vertex scan per stage list, its output among them: 3 stages
    # each way for p' = 2p+1, 4 each way for p' = 2p-1, where bij2_forward
    # also finds the peaks of the flip's raw heights.  A trace holds its
    # stage paths, so reading its fields scans nothing.
    inv, fwd, stages, turns = ((bij1_inverse, bij1_forward, 3, 0) if half[0] % 2 == 0
                               else (bij2_inverse, bij2_forward, 4, 1))
    image = HalfPath.of(*half)
    path, n_inv = _scans(inv, image)
    (again, trace), n_fwd = _scans(fwd, path)
    assert again == image
    assert (n_inv, n_fwd) == ((stages, 0, 0), (stages, turns, 0))
    names = [f.name for f in dataclasses.fields(trace)]
    _, n_trace = _scans(lambda t: [getattr(t, name) for name in names * 2], trace)
    assert n_trace == (0, 0, 0)


_REAL_DELETE, _REAL_INSERT = bijections._delete_pairs, bijections._insert_notches


def _shifted_delete(seq, positions):
    return _REAL_DELETE(seq, [x + 1 for x in positions])


def _shifted_insert(seq, notches):
    return _REAL_INSERT(seq, [(x + 1, step) for x, step in notches])


@pytest.mark.parametrize("name,path,helper,corrupted,stage,kind", [
    ("bij1_forward", RSOS_49, "_delete_pairs", _shifted_delete, "cut", "rsos"),
    ("bij1_forward", RSOS_49, "_insert_notches", _shifted_insert, "raise", "half"),
    ("bij1_inverse", HALF_8_IMAGE, "_delete_pairs", _shifted_delete, "lower", "half"),
    ("bij2_forward", RSOS_47, "_insert_notches", _shifted_insert, "flip", "half"),
    ("bij2_inverse", HALF_7_IMAGE, "_delete_pairs", _shifted_delete, "lower", "half"),
])
def test_a_corrupted_stage_raises_at_its_name(name, path, helper, corrupted, stage, kind):
    # a stage helper that edits the heights one position off: the map
    # refuses at the stage that made the list, naming the map, the stage and
    # the offending path line, and returns no path
    path = (RsosPath.of if len(path) == 5 else HalfPath.of)(*path)
    with mock.patch.object(bijections, helper, corrupted):
        with pytest.raises(bijections.InvariantError) as info:
            getattr(bijections, name)(path)
    err = info.value
    assert isinstance(err, AssertionError)
    assert err.stage == f"{name} {stage}"
    assert err.line.startswith(f"{kind} ")
    assert str(err) == f"{name} {stage}: {err.detail}: {err.line}"


_REAL_PAIR_RUNS, _REAL_FRAME = bijections._pair_runs, lattice.frame


def _reversed_runs(positions):
    return _REAL_PAIR_RUNS(positions)[::-1]


def _short_delete(seq, positions):
    return _REAL_DELETE(seq, positions)[:-1]


def _frame_off_by_one(call, step):
    """`lattice.frame`, but its call-th call frames the heights one band
    height too far (step 1) or too short (step -1), to an odd horizon.
    """
    calls = itertools.count(1)

    def frame(hs, b):
        seq = _REAL_FRAME(hs, b)
        if next(calls) != call:
            return seq
        return seq + [seq[-2]] if step > 0 else seq[:-1]
    return frame


@pytest.mark.parametrize("name,path,helpers,frame,stage,detail,kind", [
    ("bij1_forward", RSOS_49, {"_pair_runs": _reversed_runs}, None, "particles",
     "particle labels must form a partition", "rsos"),
    ("bij1_forward", RSOS_49, {"_pair_runs": _reversed_runs, "_is_partition": lambda *_: True},
     None, "raise", "peak numbers must be positive and strictly decrease", "half"),
    ("bij2_forward", RSOS_47, {}, (1, 1), "flip",
     "even cut horizon must end at the even tail height", "rsos"),
    ("bij2_inverse", (7, 6, 4, [6, 5, 4]), {}, (2, -1), "flip",
     "the unstacked path must end at the start height a", "half"),
    ("bij2_inverse", HALF_7_IMAGE, {"_delete_pairs": _short_delete}, None, "flip",
     "the lowered, reversed path must run from a to the tail", "half"),
], ids=["particle-partition", "peak-numbers", "even-cut-horizon", "end-at-a", "reversed-run"])
def test_a_corrupted_helper_reaches_the_check_behind_it(name, path, helpers, frame, stage,
                                                       detail, kind):
    # checks that no valid input reaches: particles listed right to left,
    # then also a partition test that passes anything; a cut or a lowered
    # stage framed to an odd horizon, its scan's checks all passing; a
    # lowering that drops the last height.  Each fires first at its stage.
    path = (RsosPath.of if len(path) == 5 else HalfPath.of)(*path)
    with contextlib.ExitStack() as stack:
        for helper, corrupted in helpers.items():
            stack.enter_context(mock.patch.object(bijections, helper, corrupted))
        if frame:
            stack.enter_context(mock.patch.object(lattice, "frame", _frame_off_by_one(*frame)))
        with pytest.raises(bijections.InvariantError) as info:
            getattr(bijections, name)(path)
    err = info.value
    assert (err.stage, err.detail) == (f"{name} {stage}", detail)
    assert err.line.startswith(f"{kind} ")
    assert stage != "particles" or err.line == path.to_line()  # the input's own line


def test_a_reinsertion_off_the_strip_is_refused():
    # a notch rule that always steps up: the particle at position 0 of the
    # RSOS path, at the top height 6 of p' = 7, would leave the strip; the
    # reinsertion stage refuses, on the line of the cut it reinserts into
    with mock.patch.object(bijections, "_notch_step", lambda height: 1):
        with pytest.raises(bijections.InvariantError) as info:
            bij2_inverse(HalfPath.of(*HALF_7_IMAGE))
    err = info.value
    assert (err.stage, err.detail) == ("bij2_inverse reinsert",
                                       "reinsertion at position 0 leaves the strip")
    assert err.line.startswith("rsos p=4 pp=7 ")


@pytest.mark.parametrize("name,half,kind", [("bij1_inverse", HALF_8_IMAGE, "integer"),
                                             ("bij2_inverse", HALF_7_IMAGE, "non-integer")])
def test_unstacking_that_lowers_nothing_is_refused(name, half, kind):
    # peaks the lowering stage leaves standing are its check's to refuse,
    # before any later stage reads them, on the line of the lowered stage
    with mock.patch.object(bijections, "_delete_pairs", lambda seq, positions: list(seq)):
        with pytest.raises(bijections.InvariantError) as info:
            getattr(bijections, name)(HalfPath.of(*half))
    err = info.value
    assert (err.stage, err.detail) == (f"{name} lower", f"{kind} peaks remain after unstacking")
    assert err.line.startswith(f"half T={half[0]} ")


def test_both_inverses_lower_the_stored_peaks_of_t_parity():
    # on every half path of the Theorem-1 labels with T = 4..9 to weight 12,
    # each inverse map's lowered stage is its input with the pair (j, j+1)
    # deleted at every stored peak j of T's parity: accretions and raised
    # peaks alike for p' = 2p-1.  So both maps unstack the same peaks; only
    # bij2_inverse's numbering of its accretions tells them apart.
    real, stages = bijections._lower_peaks, []

    def spy(*args):
        out = real(*args)
        stages.append(out[1])
        return out

    checked = 0
    with mock.patch.object(bijections, "_lower_peaks", spy):
        for t2, a2, b2 in hp.theorem1_labels(4, 9):
            for path in hp.enumerate_paths(t2, a2, b2, 12):
                stages.clear()
                inverse(path)
                seq = path.padded(path.horizon + 1)
                peaks = [j for j in path._scan[2] if seq[j] % 2 == t2 % 2]
                want = lattice.frame(bijections._delete_pairs(seq, peaks), b2)
                assert [stage.seq for stage in stages] == [want], path.to_line()
                checked += 1
    assert checked == 8281


# -- seeded long paths, far beyond the exhaustive weight-12 window -------------


@pytest.mark.parametrize("family", [1, 2])
def test_long_rsos_paths_round_trip(family):
    rnd = random.Random(family)
    weights = []
    for i in range(84):  # 80 short walks, then 4 of 2 000 to 2 400 steps
        p = rnd.randint(2 if family == 1 else 3, 6)
        pp = 2 * p + 1 if family == 1 else 2 * p - 1
        a = 2 * rnd.randint(1, p if family == 1 else p - 1)
        b = 2 * rnd.randint(1, p - 1) - (family - 1)
        steps = rnd.randint(20, 90) if i < 80 else rnd.randint(2000, 2400)
        path = RsosPath.of(p, pp, a, b, walk(rnd, a, 1, pp - 1, b, steps))
        image, _ = forward(path)
        weights.append(rsos.weight(path))
        assert hp.weight(image) == weights[-1], path.to_line()
        assert inverse(image) == path, path.to_line()
    assert statistics.median(weights) >= 200


@pytest.mark.parametrize("family", [1, 2])
def test_long_half_paths_round_trip(family):
    rnd = random.Random(10 + family)
    weights = []
    for i in range(84):  # 80 short walks, then 4 of 2 000 to 2 400 steps
        t2 = rnd.randint(2, 6) * 2 if family == 1 else rnd.randint(3, 6) * 2 - 1
        a2, b2 = rnd.choice([(a2, b2) for a2 in range(2, t2 + 1, 2)
                             for b2 in range(2, t2 + 1, 2) if hp.theorem1_domain(t2, a2, b2)])
        steps = rnd.randint(40, 180) if i < 80 else rnd.randint(2000, 2400)
        g = HalfPath.of(t2, a2, b2, walk(rnd, a2, 2, t2, b2, steps, half_ok))
        back = inverse(g)
        weights.append(hp.weight(g))
        assert rsos.weight(back) == weights[-1], g.to_line()
        assert forward(back)[0] == g, g.to_line()
    assert statistics.median(weights) >= 200


def test_forward_rejects_a_family_free_path():
    with pytest.raises(BijectionDomainError):
        forward(RsosPath.of(2, 7, 2, 2, [2]))  # p' = 7 is neither 2p+1 nor 2p-1


def test_pair_runs_matches_the_run_by_run_loop():
    # seeded random sorted position lists, dense enough for long runs
    rnd = random.Random(23)
    for _ in range(3000):
        upto = rnd.randrange(0, 40)
        positions = sorted(rnd.sample(range(1, upto + 1), rnd.randrange(0, upto + 1)))
        assert bijections._pair_runs(positions) == pair_runs(positions), positions


def _staircase(a, b):
    """The unit steps from a straight to b."""
    return list(range(a, b + 1)) if a <= b else list(range(a, b - 1, -1))


def _mapped(name, path):
    """What the map named makes of the path, or None where it refuses the
    path's label as out of its domain.
    """
    try:
        return getattr(bijections, name)(path)
    except BijectionDomainError:
        return None


def test_maps_refuse_exactly_the_labels_outside_their_domains():
    # both families with p <= 11, every (a, b), and every half label with
    # T <= 23: each of the four maps refuses a label exactly where the
    # range checks it made by hand refused it, and maps the rest, the two
    # sides' labels paired by `hp.rsos_label`; a tail at b = p'-1 or B = T,
    # whose band leaves the strip, is refused before any map
    for p in range(2, 12):
        for pp in (2 * p + 1, 2 * p - 1):
            for a in range(1, pp):
                for b in range(1, pp):
                    if b == pp - 1:
                        with pytest.raises(InvalidPathError, match=f"^tail height b={b} out"):
                            RsosPath.of(p, pp, a, b, _staircase(a, b))
                        continue
                    path = RsosPath.of(p, pp, a, b, _staircase(a, b))
                    for name in ("bij1_forward", "bij2_forward"):
                        inside = BIJECTION_DOMAINS[name](p, pp, a, b)
                        image = _mapped(name, path)
                        assert (image is not None) == inside, (name, path)
                        assert not inside or hp.rsos_label(*astuple(image[0])[:3]) == (p, pp, a, b)
    for t2 in range(4, 24):
        for a2 in range(2, t2 + 1, 2):
            for b2 in range(2, t2 + 1, 2):
                if b2 == t2:
                    with pytest.raises(hp.InvalidHalfPathError,
                                       match=rf"^tail height B={b2} out of range 2\.\.{t2 - 1}$"):
                        HalfPath.of(t2, a2, b2, _staircase(a2, b2))
                    continue
                path = HalfPath.of(t2, a2, b2, _staircase(a2, b2))
                for name in ("bij1_inverse", "bij2_inverse"):
                    inside = BIJECTION_DOMAINS[name](t2, a2, b2)
                    back = _mapped(name, path)
                    assert (back is not None) == inside, (name, path)
                    assert not inside or astuple(back)[:4] == hp.rsos_label(t2, a2, b2)


# one small half label (T, A, B) of each family: p' = 2p+1, then p' = 2p-1
CHECKED_LABELS = ((4, 2, 2), (5, 4, 2))


def _rsos_paths(half):
    return list(rsos.enumerate_paths(*hp.rsos_label(*half), 6))


@pytest.mark.parametrize("half", CHECKED_LABELS)
def test_check_bijection_lists_the_rsos_paths_only(half):
    # the half paths are counted, never listed: the one listing walk the
    # check builds is the RSOS one
    paths = _rsos_paths(half)
    with mock.patch.object(lattice, "_walk_root", wraps=lattice._walk_root) as walk:
        assert verify._check_bijection(*half, 6) == dict(ok=True, detail={"paths": len(paths)})
    assert walk.call_count == 1


@pytest.mark.parametrize("half", CHECKED_LABELS)
def test_check_bijection_names_an_inverse_mismatch(half):
    paths = _rsos_paths(half)
    target = paths[-1]
    real = bijections.inverse

    def inverse(image):
        back = real(image)
        return paths[0] if back == target else back

    with mock.patch.object(verify.bj, "inverse", inverse):
        verdict = verify._check_bijection(*half, 6)
    assert verdict == dict(ok=False, detail=dict(reason="inverse mismatch",
                                                 path=target.to_line()))


@pytest.mark.parametrize("half", CHECKED_LABELS)
def test_check_bijection_counts_images_short_of_the_half_paths(half):
    # every path of one weight goes to one image, and each still maps back
    # to its own path: only the count of distinct images shows it
    paths = _rsos_paths(half)
    real = bijections.forward
    firsts = {}  # weight -> the image of the first path of that weight
    last = []  # the path forward saw last

    def forward(path):
        last[:] = [path]
        return firsts.setdefault(rsos.weight(path), real(path)[0]), None

    with mock.patch.object(verify.bj, "forward", forward):
        with mock.patch.object(verify.bj, "inverse", lambda image: last[0]):
            verdict = verify._check_bijection(*half, 6)
    assert len(firsts) < len(paths)
    assert verdict == dict(ok=False, detail=dict(
        reason="image set does not exhaust the half-path set", paths=len(paths),
        halves=len(hp.enumerate_paths(*half, 6)), images=len(firsts)))


@pytest.mark.parametrize("half", CHECKED_LABELS)
def test_check_bijection_names_an_image_off_its_label_or_weight(half):
    # every path sent to a weight-0 image: of another label, the first path
    # fails; of the label, the first path of positive weight fails
    paths = _rsos_paths(half)
    t2, a2, b2 = half
    heavy = next(h for h in paths if rsos.weight(h))
    for image, failing in ((ground_state(t2 + 2, a2, b2), paths[0]),
                           (ground_state(*half), heavy)):
        with mock.patch.object(verify.bj, "forward", lambda path: (image, None)):
            verdict = verify._check_bijection(*half, 6)
        assert verdict == dict(ok=False, detail=dict(reason="label or weight changed",
                                                     path=failing.to_line()))
