import pytest

from viracomb import halfpath
from viracomb.characters import bosonic_character, theorem1_label
from viracomb.halfpath import (
    HalfPath,
    InvalidHalfPathError,
    enumerate_paths,
    generating_function,
    theorem1_domain,
    weight,
)

from data_paths import (
    HALF_7_GS_QUARTERS,
    HALF_7_IMAGE,
    HALF_7_RAW_QUARTERS,
    HALF_7_WEIGHT,
    HALF_8_IMAGE,
    HALF_8_RAW_QUARTERS,
    HALF_8_WEIGHT,
    HALF_10,
    HALF_10_GS_QUARTERS,
    HALF_10_RAW_QUARTERS,
    HALF_10_WEIGHT,
)
from oracles import ground_state, raw_weight_quarters, straight_positions, weight_extended


def violation(t2, a2, b2, doubled):
    """The message `HalfPath.of` refuses the sequence with, or None."""
    try:
        HalfPath.of(t2, a2, b2, doubled)
    except InvalidHalfPathError as exc:
        return str(exc)
    return None


def test_validate_accepts_integer_valleys():
    assert violation(10, 4, 8, [4, 5, 4, 5, 6, 7, 8]) is None


def test_validate_rejects_half_height_valley():
    msg = violation(10, 6, 6, [6, 5, 6])
    assert msg is not None and "valley" in msg


def test_validate_examples():
    assert violation(*HALF_10) is None
    assert violation(10, 4, 8, [4, 3, 5]) is not None  # bad step
    assert violation(10, 3, 8, [3, 4]) is not None  # odd endpoints
    assert violation(10, 4, 8, [4, 3, 2, 1, 2]) is not None  # below the strip
    # an odd valley comes first, but a range or step fault wins over it
    assert violation(10, 6, 6, [6, 5, 6, 8]) == \
        "step at doubled position 3 is not a half-unit step"
    assert violation(10, 6, 6, [6, 5, 6, 7, 8, 9, 10, 11]) == \
        "height 11 at doubled position 7 out of range 2..10"
    assert violation(10, 6, 6, [6, 5, 6]) == \
        "valley at non-integer height 5/2 (doubled position 1)"


def test_raw_weight_golden():
    path = HalfPath.of(*HALF_10)
    assert raw_weight_quarters(path) == HALF_10_RAW_QUARTERS
    gs = ground_state(10, 4, 8)
    assert gs.doubled == (4, 5, 6, 7, 8)
    assert straight_positions(gs) == [1, 2, 3, 4]  # H(-1) = 5 = H(1)
    assert raw_weight_quarters(gs) == HALF_10_GS_QUARTERS
    assert weight(path) == HALF_10_WEIGHT


def test_descending_ground_state():
    gs = ground_state(8, 8, 6)
    assert gs.doubled == (8, 7, 6)
    assert straight_positions(gs) == [0, 1]  # H(-1) = 9 above H(1) = 7
    assert raw_weight_quarters(gs) == 1


def test_pure_tail_ground_state():
    gs = ground_state(8, 4, 4)
    assert gs.doubled == (4,)
    assert raw_weight_quarters(gs) == 0
    assert weight(gs) == 0


def test_image_weights_golden():
    f5 = HalfPath.of(*HALF_8_IMAGE)
    assert raw_weight_quarters(f5) == HALF_8_RAW_QUARTERS
    assert weight(f5) == HALF_8_WEIGHT
    f9 = HalfPath.of(*HALF_7_IMAGE)
    assert raw_weight_quarters(f9) == HALF_7_RAW_QUARTERS
    assert raw_weight_quarters(ground_state(7, 2, 6)) == HALF_7_GS_QUARTERS
    assert weight(f9) == HALF_7_WEIGHT


def test_weight_extended_matches():
    for data in (HALF_10, HALF_8_IMAGE, HALF_7_IMAGE):
        path = HalfPath.of(*data)
        assert weight_extended(path) == weight(path)
    gs = ground_state(10, 4, 8)
    assert weight_extended(gs) == 0


def test_weight_extended_on_enumerated_set():
    for path in enumerate_paths(8, 8, 6, 7):
        assert weight_extended(path) == weight(path)


def _turns(hs, hi):
    """The peaks and the valleys at positions 1 <= i < hi of unit steps."""
    turns = [i for i in range(1, hi) if hs[i - 1] == hs[i + 1]]
    return ([i for i in turns if hs[i] > hs[i - 1]], [i for i in turns if hs[i] < hs[i - 1]])


@pytest.mark.parametrize("t2,a2,b2", [(8, 8, 6), (7, 2, 6), (9, 4, 2), (10, 2, 2),
                                      (6, 2, 2), (7, 2, 2), (8, 2, 2), (9, 2, 2)])
def test_scan_matches_straights_and_peaks(t2, a2, b2):
    corner = a2 == b2 == 2
    paths = list(enumerate_paths(t2, a2, b2, 14 if corner else 9))
    assert len(paths) > 20
    for path in paths:
        # the turns at 0..L of the heights H(-1) = A + 1, H(0), ..., H(L + 1)
        hs = [a2 + 1, *path.padded(path.horizon + 1)]
        peaks, valleys = _turns(hs, path.horizon + 2)
        scan = path._scan
        assert scan == (weight_extended(path), len(straight_positions(path)),
                        tuple(i - 1 for i in peaks), tuple(i - 1 for i in valleys)), path.to_line()
        if corner:
            # what particles.dissect reads: the stored turns, with the
            # wall's valley at 0 and the horizon's valley added
            peaks, valleys = _turns(path.doubled, path.horizon)
            framed = [0, *valleys, path.horizon] if path.horizon else [0]
            assert scan[2:] == (tuple(peaks), tuple(framed)), path.to_line()


def test_enumerate_ground_state_only():
    paths = enumerate_paths(4, 2, 2, 0)
    assert list(paths) == [ground_state(4, 2, 2)]
    assert len(paths) == 1


def test_enumerate_counts_match_character():
    paths = enumerate_paths(4, 2, 2, 10)
    chi = bosonic_character(theorem1_label(4, 1, 1), 10)
    counts = [0] * 11
    for p in paths:
        counts[weight(p)] += 1
    assert tuple(counts) == chi.coeffs


@pytest.mark.parametrize(
    "t2,a2,b2",
    [(4, 2, 2), (7, 2, 6), (10, 4, 8), (8, 8, 6), (5, 4, 2), (6, 6, 2)],
)
def test_generating_function_is_character(t2, a2, b2):
    gf = generating_function(t2, a2, b2, 10)
    chi = bosonic_character(theorem1_label(t2, a2 // 2, b2 // 2), 10)
    assert gf == chi
    assert gf.coeffs[0] == 1


@pytest.mark.parametrize("t2", range(4, 13))
def test_whole_unit_counting_is_the_character(t2):
    # the search counts half paths on a grain of four quarter-units, so one
    # list entry per whole unit: every Theorem-1 label of the strip must
    # still give its character, far past the listing window
    for a2 in range(2, t2 + 1, 2):
        for b2 in range(2, t2, 2):
            chi = bosonic_character(theorem1_label(t2, a2 // 2, b2 // 2), 40)
            assert generating_function(t2, a2, b2, 40) == chi, (t2, a2, b2)


def test_truncation_point_does_not_change_weight():
    path = HalfPath.of(*HALF_10)
    longer = list(path.doubled) + [9, 8, 9, 8]
    again = HalfPath.of(path.t2, path.a2, path.b2, longer)
    assert again == path
    assert raw_weight_quarters(again) == raw_weight_quarters(path)


def test_domain_validation():
    with pytest.raises(InvalidHalfPathError):
        ground_state(10, 4, 10)  # B must stay below the top for even T
    with pytest.raises(InvalidHalfPathError):
        enumerate_paths(7, 2, 7, 4)  # odd doubled height
    with pytest.raises(InvalidHalfPathError):
        HalfPath.of(10, 4, 8, [4, 5, 6])  # ends outside the tail band


def test_of_takes_whole_number_heights_only():
    # a float height was stored as it came: H=2.0 printed a line no reader
    # took back, yet the path equalled and hashed like H=2; `of` now takes
    # exactly what `operator.index` takes
    for heights in ([2.0], [2.0, 3, 2], ["2"]):
        with pytest.raises(TypeError):
            HalfPath.of(8, 2, 2, heights)
    path = HalfPath.of(8, 2, 2, [2])
    assert path.to_line() == "half T=8 A=2 B=2 H=2"
    assert HalfPath.from_line(path.to_line()) == path


def test_line_roundtrip():
    path = HalfPath.of(*HALF_10)
    assert HalfPath.from_line(path.to_line()) == path


def test_ground_quarters_weigh_the_built_ground_state():
    labels = [(t2, a2, b2) for t2 in range(4, 41)
              for a2 in range(2, t2 + 1, 2) for b2 in range(2, t2 + 1, 2)
              if theorem1_domain(t2, a2, b2)]
    assert len(labels) == 5129
    for label in labels:
        assert halfpath._ground_quarters(*label) == raw_weight_quarters(ground_state(*label))
    # a label outside the domain carries no path: its tail band leaves the
    # strip, so neither `of` nor the raw constructor takes it
    staircase = (4, 5, 6, 7, 8, 9, 10)
    for build in (lambda: HalfPath.of(10, 4, 10, staircase),
                  lambda: HalfPath(10, 4, 10, staircase)):
        with pytest.raises(InvalidHalfPathError, match=r"^tail height B=10 out of range 2\.\.9$"):
            build()


def test_theorem1_domain_is_the_label_rule_of_a_half_path():
    # the labels a half path can carry are exactly the Theorem-1 labels:
    # the staircase from A to B builds exactly where the domain holds, odd
    # and out-of-strip values included
    built = 0
    for t2 in range(-2, 41):
        for a2 in range(-2, t2 + 3):
            for b2 in range(-2, t2 + 3):
                step = 1 if b2 >= a2 else -1
                try:
                    HalfPath.of(t2, a2, b2, range(a2, b2 + step, step))
                except InvalidHalfPathError:
                    assert not theorem1_domain(t2, a2, b2), (t2, a2, b2)
                else:
                    assert theorem1_domain(t2, a2, b2), (t2, a2, b2)
                    built += 1
    assert built == 5129
