import random

import pytest

from viracomb.characters import CharacterLabel, bosonic_character
from viracomb.qseries import QSeries
from viracomb.rsos import (
    InfiniteWeightError,
    InvalidPathError,
    RsosPath,
    dark_floors,
    enumerate_paths,
    generating_function,
    tail_band_index,
    weight,
)

from data_paths import (
    RSOS_47,
    RSOS_47_SCORING,
    RSOS_47_WEIGHT,
    RSOS_49,
    RSOS_49_CONTRIBS,
    RSOS_49_DOWN,
    RSOS_49_UP,
    RSOS_49_WEIGHT,
    walk,
)
from oracles import PEAK, classify, weight_edgewise


@pytest.fixture
def path49():
    return RsosPath.of(*RSOS_49)


@pytest.fixture
def path47():
    return RsosPath.of(*RSOS_47)


def test_dark_floors():
    assert sorted(dark_floors(4, 9)) == [2, 4, 6]
    assert sorted(dark_floors(4, 7)) == [1, 3, 5]
    assert sorted(dark_floors(2, 5)) == [2]
    assert 2 in dark_floors(4, 9) and 3 not in dark_floors(4, 9)


def test_a_pair_that_is_not_a_model_is_refused_alike():
    # enumeration, counting and a raw path's read all take the label rule
    # from `dark_floors`, with one exception type and one message
    for call in (lambda: enumerate_paths(3, 6, 2, 1, 3), lambda: generating_function(3, 6, 2, 1, 3),
                 lambda: RsosPath(3, 6, 2, 1, (2, 1)), lambda: dark_floors(3, 6)):
        with pytest.raises(InvalidPathError) as exc:
            call()
        assert str(exc.value) == "need coprime 1 < p < p', got (3, 6)"


def test_tail_band_index():
    assert tail_band_index(4, 9, 6) == 3
    assert tail_band_index(4, 9, 3) is None


def test_canonical_storage(path49):
    assert path49.horizon == 22
    assert path49.heights[-1] == 6
    # short input is extended to the canonical horizon
    p = RsosPath.of(4, 9, 8, 6, [8, 7])
    assert p.heights == (8, 7, 6)
    assert p.height(5) == 7


def test_validation_errors():
    with pytest.raises(InvalidPathError):
        RsosPath.of(4, 9, 8, 6, [8, 7, 5])  # bad step
    with pytest.raises(InvalidPathError):
        RsosPath.of(4, 9, 8, 6, [7, 6])  # wrong start
    with pytest.raises(InvalidPathError):
        RsosPath.of(4, 9, 8, 6, [8, 7, 6, 5])  # ends outside the tail band
    with pytest.raises(InvalidPathError):
        RsosPath.of(4, 6, 8, 6, [8, 7, 6])  # p, p' not coprime


def test_classification_golden(path49):
    info = classify(path49)
    assert [v.x for v in info if v.scoring and not v.up] == RSOS_49_DOWN
    assert [v.x for v in info if v.scoring and v.up] == RSOS_49_UP
    assert [v.value for v in info if v.scoring] == RSOS_49_CONTRIBS


def test_classification_golden_dual(path47):
    info = classify(path47)
    assert [v.x for v in info if v.scoring] == RSOS_47_SCORING


def test_pure_tail_is_nonscoring():
    p = RsosPath.of(4, 9, 6, 6, [6])
    assert all(not v.scoring for v in classify(p))
    assert weight(p) == 0


def test_weights_golden(path49, path47):
    assert weight(path49) == RSOS_49_WEIGHT
    assert weight_edgewise(path49) == RSOS_49_WEIGHT
    assert weight(path47) == RSOS_47_WEIGHT
    assert weight_edgewise(path47) == RSOS_47_WEIGHT


def test_weight_requires_dark_tail():
    p = RsosPath.of(4, 9, 3, 3, [3])
    with pytest.raises(InfiniteWeightError):
        weight(p)
    with pytest.raises(InvalidPathError):
        enumerate_paths(4, 9, 3, 3, 5)


def test_enumerate_weight_zero():
    paths = enumerate_paths(4, 9, 8, 6, 0)
    assert len(paths) == 1
    assert [weight(path) for path in paths] == [0]
    pure = enumerate_paths(4, 9, 6, 6, 0)
    assert RsosPath.of(4, 9, 6, 6, [6]) in pure


def test_enumerate_counts_match_character():
    paths = enumerate_paths(4, 9, 8, 6, 5)
    chi = bosonic_character(CharacterLabel(4, 9, 3, 8), 5)
    counts = [0] * 6
    for p in paths:
        counts[weight(p)] += 1
    assert tuple(counts) == chi.coeffs


@pytest.mark.parametrize(
    "p,pp,a,b,label",
    [
        (2, 5, 2, 2, (2, 5, 1, 2)),
        (4, 9, 8, 6, (4, 9, 3, 8)),
        (4, 7, 6, 1, (4, 7, 1, 6)),
        (3, 5, 4, 3, (3, 5, 2, 4)),
    ],
)
def test_generating_function_is_character(p, pp, a, b, label):
    gf = generating_function(p, pp, a, b, 12)
    assert gf == bosonic_character(CharacterLabel(*label), 12)
    assert gf.coeffs[0] == 1


def test_edgewise_identity_on_enumerated_set():
    for p in enumerate_paths(3, 7, 4, 2, 8):
        assert weight(p) == weight_edgewise(p)


def _scan_by_classify(path):
    info = classify(path)
    return (weight(path), tuple(v.x for v in info if v.scoring),
            sum(1 for v in info if v.scoring and v.shape == PEAK))


@pytest.mark.parametrize("p,pp,a,b", [(3, 7, 4, 2), (4, 9, 8, 6), (4, 7, 6, 1),
                                      (5, 9, 2, 3)])
def test_scan_matches_weight_and_classify(p, pp, a, b):
    paths = enumerate_paths(p, pp, a, b, 9)
    assert len(paths) > 20
    for path in paths:
        assert path._scan == _scan_by_classify(path), path.to_line()


def test_scan_matches_weight_and_classify_on_long_walks():
    rnd = random.Random(5)
    for i in range(40):
        p = rnd.randint(3, 6)
        pp = 2 * p + rnd.choice((1, -1))
        a = rnd.randint(1, pp - 1)
        b = rnd.choice(sorted(dark_floors(p, pp)))
        path = RsosPath.of(p, pp, a, b, walk(rnd, a, 1, pp - 1, b, 100 if i < 36 else 1500))
        scanned = path._scan
        assert scanned == _scan_by_classify(path), path.to_line()
        assert scanned[0] == weight_edgewise(path)


def test_of_takes_whole_number_heights_only():
    # a float height was truncated (2.5, 1.7 built h=2,1) and a string
    # parsed; `of` now takes exactly what `operator.index` takes
    for heights in ([2.5, 1.7], [2.0, 1.0], ["2", "1"]):
        with pytest.raises(TypeError):
            RsosPath.of(3, 5, 2, 1, heights)
    path = RsosPath.of(3, 5, 2, 1, [2, 1, 2, 1])
    assert path == RsosPath(3, 5, 2, 1, (2,)) and type(path.heights[0]) is int


def test_line_roundtrip(path49):
    assert RsosPath.from_line(path49.to_line()) == path49
    with pytest.raises(InvalidPathError):
        RsosPath.from_line("rsos p=4 pp=9 a=8")
    with pytest.raises(InvalidPathError):
        RsosPath.from_line("bogus nonsense")


def test_gf_type():
    assert isinstance(generating_function(2, 5, 2, 2, 4), QSeries)
