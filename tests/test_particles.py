import random
from collections import defaultdict
from unittest import mock

import pytest

from viracomb import characters
from viracomb import halfpath as hp
from viracomb import lattice, particles
from viracomb.characters import fermionic_character_12, m_vector, occupation_vectors
from viracomb.halfpath import HalfPath
from viracomb.lattice import InvalidPathError
from viracomb.particles import (
    apply_move,
    dissect,
    enumerate_moves,
    minimal_path,
    minimal_weight,
    sector_gf,
)
from viracomb.qseries import QSeries

from data_paths import (
    DISSECT_10,
    DISSECT_10_CHARGES,
    DISSECT_10_SECTOR,
    MINIMAL_10,
    MOVES_8,
    MOVES_9,
    half_ok,
    walk,
)
from oracles import dissect_reference, fermionic_term, ground_state


def test_dissect_golden_charges():
    dis = dissect(HalfPath.of(*DISSECT_10))
    assert [p.charge2 for p in dis.particles] == DISSECT_10_CHARGES
    assert dis.sector == DISSECT_10_SECTOR


def test_dissect_baselines_have_integer_heights():
    paths = [HalfPath.of(*DISSECT_10)]
    for t2 in range(4, 11):
        paths.extend(hp.enumerate_paths(t2, 2, 2, 12))
    for path in paths:
        for p in dissect(path).particles:
            end = p.origin + p.length
            assert p.base_h % 2 == 0
            assert p.base_h == path.height(p.peak) - p.charge2
            assert p.length >= 2 * p.charge2
            assert path.height(p.origin) == path.height(end) == p.base_h
            assert p.origin < p.peak < end


def test_dissect_requires_corner_heights():
    with pytest.raises(ValueError):
        dissect(HalfPath.of(10, 4, 8, [4, 5, 6, 7, 8]))


def test_dissect_refuses_non_canonical_storage():
    # the scan reads the stored heights as everything before the tail, so
    # storage short of or past the horizon would give other particles
    with pytest.raises(InvalidPathError, match="not stored canonically"):
        dissect(HalfPath(8, 2, 2, (2, 3, 4, 3)))
    with pytest.raises(InvalidPathError):
        dissect(HalfPath(8, 2, 2, (2, 3, 4, 3, 2, 3, 2)))
    dis = dissect(HalfPath(8, 2, 2, (2, 3, 4, 3, 2)))
    assert dis == dissect(HalfPath.of(8, 2, 2, (2, 3, 4, 3)))
    assert [p.charge2 for p in dis.particles] == [2]
    assert dis.sector == (1, 0, 0, 0, 0)


def test_ground_state_dissects_to_zero_sector():
    dis = dissect(ground_state(10, 2, 2))
    assert dis.particles == ()
    assert dis.sector == (0,) * 7


def test_minimal_path_golden():
    path = minimal_path(10, DISSECT_10_SECTOR)
    assert list(path.doubled) == MINIMAL_10
    assert hp.weight(path) == minimal_weight(10, DISSECT_10_SECTOR) == 178


def test_minimal_weight_single_particle():
    for t2 in (6, 8, 10):
        for d in range(2, t2 - 1):
            vec = tuple(1 if k == d else 0 for k in range(2, t2 - 1))
            assert minimal_weight(t2, vec) == (d - 1) * d // 2
            assert hp.weight(minimal_path(t2, vec)) == (d - 1) * d // 2


def test_minimal_roundtrip_all_small_sectors():
    for t2 in range(4, 11):
        for vec, _ in occupation_vectors(t2, 12):
            path = minimal_path(t2, vec)  # asserts dissect(path).sector == vec
            assert hp.weight(path) == minimal_weight(t2, vec)


def test_minimal_path_is_unique_minimum():
    t2 = 7
    by_sector = defaultdict(list)
    for path in hp.enumerate_paths(t2, 2, 2, 8):
        by_sector[dissect(path).sector].append(hp.weight(path))
    for sector, weights in by_sector.items():
        low = minimal_weight(t2, sector)
        assert min(weights) == low
        assert weights.count(low) == 1


def test_m_vector_zero_sector():
    assert m_vector(10, (0,) * 7) == [0] * 7


def test_a_moved_path_is_scanned_and_dissected_once():
    # apply_move builds, weighs and dissects the new path, and its caller
    # weighs and dissects it again: the path is read once, when it is built,
    # and keeps its scan and its dissection, so each runs once
    path = HalfPath.of(*DISSECT_10)
    moves = enumerate_moves(path)
    assert len(moves) == 5
    for move in moves:
        with mock.patch.object(lattice.Path, "_read", autospec=True,
                               side_effect=lattice.Path._read) as reads, \
                mock.patch.object(particles, "_dissect", wraps=particles._dissect) as cuts:
            new = apply_move(path, move)
            assert (hp.weight(new), dissect(new).sector) == (move.weight + 1, move.sector)
        assert (reads.call_count, cuts.call_count) == (1, 1), move
        # `of` hands the read the label, the stored heights and their frame
        assert reads.call_args.args[:3] == (new, (new.t2, new.a2, new.b2), new.doubled)
        assert cuts.call_args_list == [mock.call(new)]


def test_a_listed_move_is_planned_once():
    # enumerate_moves keeps on each move the edit it found, and apply_move
    # enacts that edit without planning it again
    path = HalfPath.of(*DISSECT_10)
    with mock.patch.object(particles, "_move_plan", wraps=particles._move_plan) as plans:
        moves = enumerate_moves(path)
        for move in moves:
            apply_move(path, move)
    assert plans.call_count == len(moves) == 5
    assert [move.plan for move in moves] == [
        particles._move_plan(path, move.particle, move.owner) for move in moves]


def test_a_move_applies_only_to_the_path_it_was_listed_on():
    path = HalfPath.of(*DISSECT_10)
    move = enumerate_moves(path)[0]
    moved = apply_move(path, move)
    with pytest.raises(ValueError, match="listed on another path"):
        apply_move(moved, move)
    with pytest.raises(ValueError, match="listed on another path"):
        apply_move(minimal_path(10, DISSECT_10_SECTOR), move)
    # an equal path read apart is the same path
    assert apply_move(HalfPath.from_line(path.to_line()), move) == moved


def test_move_sequence_against_larger_particle():
    cur = HalfPath.of(9, 2, 2, MOVES_9[0])
    for expected in MOVES_9[1:]:
        moves = [m for m in enumerate_moves(cur) if m.particle.charge2 == 3]
        assert len(moves) == 1
        before = hp.weight(cur)
        cur = apply_move(cur, moves[0])
        assert list(cur.doubled) == expected
        assert hp.weight(cur) == before + 1
    assert not [m for m in enumerate_moves(cur) if m.particle.charge2 == 3]


def test_move_sequence_with_half_height_exchange():
    cur = HalfPath.of(8, 2, 2, MOVES_8[0])
    for expected in MOVES_8[1:]:
        moves = [m for m in enumerate_moves(cur) if m.particle.charge2 == 3]
        assert len(moves) == 1
        cur = apply_move(cur, moves[0])
        assert list(cur.doubled) == expected
    assert not [m for m in enumerate_moves(cur) if m.particle.charge2 == 3]


def test_wall_blocks_moves():
    path = minimal_path(8, (0, 0, 0, 1, 0))  # a single particle at the wall
    assert [m for m in enumerate_moves(path) if m.particle.charge2 == 6] == []


def test_exhausting_the_leftmost_sea_particle():
    cur = minimal_path(10, DISSECT_10_SECTOR)
    count = 0
    while True:
        stored = [p for p in dissect(cur).particles if p.charge2 == 1]
        target = stored[0].peak if stored else cur.horizon + 1
        moves = [m for m in enumerate_moves(cur) if m.particle.peak == target]
        if not moves:
            break
        cur = apply_move(cur, moves[0])
        count += 1
        assert count <= 20
    assert count == m_vector(10, DISSECT_10_SECTOR)[0] == 17


def test_sector_gf_zero_sector_is_one():
    series = sector_gf(8, (0, 0, 0, 0, 0), 6)
    assert series == QSeries.one(6)


def test_sector_gf_rejects_negative_occupation():
    with pytest.raises(ValueError, match=r"\(1, -1, 1, 0, 0\)"):
        sector_gf(8, (1, -1, 1, 0, 0), 12)


def test_sector_gf_matches_term_oracle():
    # the walk over one vector against its term built alone; vectors past the
    # order give zero, as does a lone particle above the walk's top charge
    for t2 in range(4, 13):
        for order in (0, 1, 5, 13, 30):
            for vec, e in occupation_vectors(t2, order + 6):
                assert e == minimal_weight(t2, vec)
                expect = [0] * (order + 1)
                if e <= order:
                    expect[e:] = fermionic_term(t2, vec, order - e).coeffs
                assert sector_gf(t2, vec, order).coeffs == tuple(expect), (t2, vec, order)
            top = characters._top_charge(t2, order)
            if top < t2 - 2:
                vec = tuple(int(c == top + 1) for c in range(2, t2 - 1))
                assert sector_gf(t2, vec, order) == QSeries.zero(order), (t2, order)


@pytest.mark.parametrize("t2", range(4, 11))
def test_sector_sum_is_fermionic_character(t2):
    order = 12
    acc = [0] * (order + 1)
    for vec, _ in occupation_vectors(t2, order):
        for i, c in enumerate(sector_gf(t2, vec, order).coeffs):
            acc[i] += c
    assert tuple(acc) == fermionic_character_12(t2, order).coeffs


@pytest.mark.parametrize("t2", (5, 7, 8, 10))
def test_sector_grouping_matches_gf(t2):
    order = 9
    groups = defaultdict(lambda: [0] * (order + 1))
    for path in hp.enumerate_paths(t2, 2, 2, order):
        groups[dissect(path).sector][hp.weight(path)] += 1
    assert groups  # at least the empty sector shows up
    for sector, counts in groups.items():
        assert tuple(counts) == sector_gf(t2, sector, order).coeffs


def test_moves_preserve_sector_broadly():
    checked = 0
    for path in hp.enumerate_paths(6, 2, 2, 9):
        for move in enumerate_moves(path):
            apply_move(path, move)  # internal +1 and sector assertions
            checked += 1
    assert checked > 50


# -- the one-scan dissection against the reference scan ----------------------


def _enumerated_corner_paths():
    return [path for t2 in range(4, 12) for path in hp.enumerate_paths(t2, 2, 2, 14)]


def _fields(dis):
    return dis.sector, [p._asdict() for p in dis.particles]


def test_dissect_matches_reference_on_enumerated_paths():
    paths = _enumerated_corner_paths()
    assert len(paths) > 1500
    for path in paths:
        assert _fields(dissect(path)) == _fields(dissect_reference(path)), path.to_line()


def test_dissect_matches_reference_on_long_walks():
    rnd = random.Random(13)
    for i in range(240):  # 200 walks of up to 200 steps, then 40 of 1 000 to 2 000
        t2 = rnd.randint(4, 16)
        steps = rnd.randint(0, 200) if i < 200 else rnd.randint(1000, 2000)
        path = HalfPath.of(t2, 2, 2, walk(rnd, 2, 2, t2, 2, steps, half_ok))
        assert _fields(dissect(path)) == _fields(dissect_reference(path)), path.to_line()


def _move_outcomes(paths):
    out = []
    for path in paths:
        for move in enumerate_moves(path):
            try:
                got = apply_move(path, move).to_line()
            except AssertionError as exc:
                got = f"failed: {exc}"
            out.append((path.to_line(), move, got))
    return out


def test_moves_match_reference_dissection(monkeypatch):
    # the listed moves, and which of them fail, stay as the reference
    # dissection makes them, on every small path and on walks long enough
    # to reach the moves that fail
    rnd = random.Random(14)
    paths = _enumerated_corner_paths() + [
        HalfPath.of(t2, 2, 2, walk(rnd, 2, 2, t2, 2, rnd.randint(6, 60), half_ok))
        for t2 in (rnd.randint(6, 10) for _ in range(300))
    ]
    fast = _move_outcomes(paths)
    monkeypatch.setattr(particles, "dissect", dissect_reference)
    assert _move_outcomes(paths) == fast
    assert any(got.startswith("failed") for _, _, got in fast)
