"""One read per path: the constructors of `RsosPath` and `HalfPath` check
and scan a path in one pass, and with `of`'s canonical storage in front
they must do exactly what the readers they replaced did one after another
(`oracles.rsos_of` and `oracles.half_of`, then `oracles.rsos_scan` and
`oracles.half_scan`): refuse with the same exception and message, or store
the same heights and scan them the same.  The inputs are seeded random
walks of both models and both bijection families, with light RSOS tail
bands and half labels outside the Theorem-1 domain, tails cut short or run
long, and single-edit garbled copies.  Every way of building a path reads
it: `of`, `from_line`, a raw constructor call, `dataclasses.replace` and a
listing refuse a path with `of`'s message wherever `of` would refuse its
heights, and a raw path unless it is stored as `of` would store it.  A
bijection stage on a path's frame builds the path `of` builds, with the
scan it made there.
"""

import dataclasses
import random
from math import gcd

import pytest

from functools import partial

from viracomb import bijections
from viracomb import halfpath as hp
from viracomb import lattice, rsos
from viracomb.halfpath import HalfPath
from viracomb.lattice import InvalidPathError
from viracomb.rsos import RsosPath

import oracles
from data_paths import half_ok, walk


def _refusal(call, *args):
    """call(*args), or the type and message of the refusal it raised."""
    try:
        return call(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


def _read(build, args):
    """The fields and the kept scan of the path built from args, or the
    constructor's refusal.
    """
    path = _refusal(build, *args)
    if isinstance(path, tuple):
        return path
    return dataclasses.astuple(path), path._scan


def _oracle_read(of, scan, args):
    """The fields the oracle stores from args and their oracle scan, or the
    oracle's refusal.
    """
    fields = _refusal(of, *args)
    if isinstance(fields[0], type):
        return fields
    return fields, _refusal(scan, *fields)


def _rsos_walk(rnd):
    p = rnd.randint(2, 7)
    pp = rnd.choice([2 * p + 1, 2 * p - 1, 2 * p - 1, rnd.randint(p + 1, 2 * p + 2)])
    a, b = rnd.randint(1, pp - 1), rnd.randint(1, pp - 1)  # light tails too
    return [p, pp, a, b], walk(rnd, a, 1, pp - 1, b, rnd.randint(0, 40))


def _half_walk(rnd):
    t2 = rnd.randint(4, 13)
    a2, b2 = 2 * rnd.randint(1, t2 // 2), 2 * rnd.randint(1, t2 // 2)  # any domain
    return [t2, a2, b2], walk(rnd, a2, 2, t2, b2, rnd.randint(0, 60), half_ok)


def _inputs(rnd, make, count):
    """Random walks, their tails cut short or run long by whole steps of
    the oscillation, and a single-edit garbled copy of most of them.
    """
    for _ in range(count):
        label, hs = make(rnd)
        b = label[-1]
        for _ in range(rnd.randrange(6)):
            hs.append(b + 1 if hs[-1] == b else b)
        yield label, hs
        edit = rnd.randrange(7)
        label, hs = list(label), list(hs)
        i = rnd.randrange(len(hs))
        if edit == 0:
            hs[i] += rnd.choice([-2, -1, 1, 2])
        elif edit == 1:
            del hs[i]
        elif edit == 2:
            hs.insert(i, hs[i] + rnd.choice([-1, 0, 1]))
        elif edit == 3:
            hs[i] = rnd.randint(0, label[1] if len(label) == 4 else label[0] + 1)
        elif edit == 4:
            label[rnd.randrange(len(label))] += rnd.choice([-2, -1, 1])
        elif edit == 5:
            hs = hs[: rnd.randrange(len(hs) + 1)]
        else:
            continue
        yield label, hs


@pytest.mark.parametrize("model", ["rsos", "half"])
def test_one_read_is_the_old_three(model):
    rnd = random.Random(22 if model == "rsos" else 23)
    if model == "rsos":
        make, cls, old = _rsos_walk, RsosPath, (oracles.rsos_of, oracles.rsos_scan)
    else:
        make, cls, old = _half_walk, HalfPath, (oracles.half_of, oracles.half_scan)
    refusals = set()
    built = scanned = 0
    for label, hs in _inputs(rnd, make, 1500):
        args = (*label, hs)
        got = _read(cls.of, args)
        want = _oracle_read(*old, args)
        assert got == want, args
        if isinstance(got[0], type):
            refusals.add(got[1].split(" ")[0])
            continue
        built += 1
        scanned += not isinstance(want[1][0], type)
        # built raw from the oracle's storage, the path reads the same
        assert _read(cls, want[0]) == got, args
    # every kind of refusal shows up, and most inputs build; every path
    # that builds also scans, since one read does both
    kinds = {"need", "path", "tail", "height", "step", "stored"}
    assert kinds | ({"start", "valley"} if model == "half" else set()) <= refusals
    assert built > 1000 and scanned == built


def test_a_raw_path_not_starting_at_a_fails_its_labels_as_before():
    # the old reader failed such a path on a vertex label, or weighed it;
    # its constructor's read checks the start, as `of` does, and refuses it
    # with `of`'s message when it is built
    rnd = random.Random(24)
    raised = 0
    for _ in range(400):
        (p, pp, a, b), hs = _rsos_walk(rnd)
        if gcd(p, pp) != 1:
            continue
        if b == pp - 1:  # the tail band {b, b+1} leaves the strip
            assert _refusal(RsosPath.of, p, pp, a, b, hs) == (
                InvalidPathError, f"tail height b={b} out of range")
            continue
        path = RsosPath.of(p, pp, a, b, hs)
        for shift in (-3, -2, -1, 1, 2, 3):
            refusal = (InvalidPathError, f"path must start at a={a + shift}, got {a}")
            assert _refusal(oracles.rsos_of, p, pp, a + shift, b, path.heights) == refusal
            for _ in range(2):
                assert _refusal(RsosPath, p, pp, a + shift, b, path.heights) == refusal, path
            raised += 1
    assert raised > 1000


def test_weighing_a_raw_path_stored_otherwise_is_refused():
    # one oscillation past the horizon, storage ending outside the tail band,
    # two oscillations past it, storage short of an even horizon, and no
    # storage at all: each model's constructor refuses them, storage `of`
    # refuses with its message (None: `of` builds it, stored otherwise), so
    # no caller weighs another path instead
    for cls, label, stored, message in (
            (RsosPath, (3, 7, 6, 4), (6, 5, 4, 3, 4, 5, 4), None),
            (RsosPath, (5, 11, 10, 8), (10, 9, 8, 7),
             "stored sequence must end inside the tail band, got 7"),
            (RsosPath, (4, 7, 6, 1), (6, 5, 4, 3, 2, 1, 2, 1, 2), None),
            (RsosPath, (3, 7, 2, 2), (), "height sequence is empty"),
            (HalfPath, (8, 2, 2), (2, 3, 4, 3), None),
            (HalfPath, (8, 2, 2), (), "height sequence is empty")):
        built = _refusal(cls.of, *label, stored)
        if message is None:
            assert not isinstance(built, tuple)
            refusal = (InvalidPathError,
                       f"path not stored canonically: {_line(cls, label, stored)}")
        else:
            kind = InvalidPathError if cls is RsosPath else hp.InvalidHalfPathError
            refusal = (kind, message)
            assert built == refusal
        for _ in range(2):  # a refusal leaves nothing behind, so it repeats
            assert _refusal(cls, *label, stored) == refusal


def test_a_raw_path_leaving_the_strip_is_refused():
    # the read checks every stored height against the strip 1..p'-1,
    # however the path was built: a path through height 0 has no weight
    for _ in range(2):
        assert _refusal(RsosPath, 3, 5, 1, 1, (1, 0, 1)) == (
            InvalidPathError, "height 0 at position 1 out of range")


def test_a_tail_band_at_the_top_of_the_strip_is_refused():
    # b = p'-1 puts the tail band {b, b+1} partly above the strip, so the
    # path would oscillate out of it and print a line no reader takes back
    for pp, b in ((5, 4), (7, 6), (11, 10)):
        a = b - 1
        assert _refusal(RsosPath.of, 2, pp, a, b, (a, b)) == (
            InvalidPathError, f"tail height b={b} out of range")
        line = f"rsos p=2 pp={pp} a={a} b={b} h={a},{b},{b + 1}"
        assert _refusal(RsosPath.from_line, line) == (
            InvalidPathError, f"tail height b={b} out of range")
    for b in (1, 2, 3):  # every tail band inside the strip is taken
        assert RsosPath.of(2, 5, b, b, (b,)).b == b


def test_a_raw_path_breaking_a_path_rule_is_refused_as_of_refuses_it():
    # a raw path not starting at its label's start, which was weighed (0)
    # or failed an invariant check, and a raw half path with a valley at an
    # odd doubled height, which was weighed (2) and failed inside a map:
    # the constructor refuses each with `of`'s message for the same
    # heights, and so does every repeat
    for cls, label, stored, message in (
            (RsosPath, (3, 5, 2, 1), (1,), "path must start at a=2, got 1"),
            (RsosPath, (4, 9, 6, 4), (4,), "path must start at a=6, got 4"),
            (HalfPath, (8, 2, 2), (4, 3, 2), "path must start at A=2, got 4"),
            (HalfPath, (8, 2, 2), (2, 3, 4, 3, 4, 3, 4, 3, 2),
             "valley at non-integer height 3/2 (doubled position 3)")):
        kind = InvalidPathError if cls is RsosPath else hp.InvalidHalfPathError
        assert _refusal(cls.of, *label, stored) == (kind, message)
        for _ in range(2):  # a refusal leaves nothing behind, so it repeats
            assert _refusal(cls, *label, stored) == (kind, message)


def test_a_half_tail_band_at_the_top_of_the_strip_is_refused():
    # B = T puts the tail band {B, B+1} partly above the strip 2..T, so the
    # path would oscillate out of it: the twin of the RSOS b = p'-1 refusal,
    # made by `of`, the line reader and the raw constructor alike
    for t2 in (4, 6, 8, 12):
        a2 = t2 - 2
        hs = (a2, a2 + 1, t2)
        refusal = (hp.InvalidHalfPathError, f"tail height B={t2} out of range 2..{t2 - 1}")
        assert _refusal(HalfPath.of, t2, a2, t2, hs) == refusal
        line = f"half T={t2} A={a2} B={t2} H={a2},{a2 + 1},{t2}"
        assert _refusal(HalfPath.from_line, line) == refusal
        for _ in range(2):
            assert _refusal(HalfPath, t2, a2, t2, hs) == refusal
        for b2 in range(2, t2, 2):  # every tail band inside the strip is taken
            assert HalfPath.of(t2, b2, b2, (b2,)).b2 == b2


# -- every way of building a path reads it -------------------------------------


def _line(cls, label, stored) -> str:
    """The path line of a label and stored heights, written out here, since
    no path object can hold heights its read refuses.
    """
    hs = ",".join(map(str, stored))
    if cls is RsosPath:
        p, pp, a, b = label
        return f"rsos p={p} pp={pp} a={a} b={b} h={hs}"
    t2, a2, b2 = label
    return f"half T={t2} A={a2} B={b2} H={hs}"


def _listed(cls, label, start, low, top):
    """The paths a search from `start` in the strip low..top lists as the
    model's label: every vertex costs one, so a few short walks into the
    tail band fit.
    """
    one = (0, 0, 1, 1)  # a constant cost, slope 0
    return iter(lattice.search(lattice.Model(
        start, label[-1], low, top, 3, 12, "a test walk", lambda *vertex: one,
        [lattice.FREE] * (top + 1), one, build=partial(cls, *label))))


_BROKEN = (
    (RsosPath, (3, 5, 2, 1), (1,), InvalidPathError, "path must start at a=2, got 1"),
    (RsosPath, (3, 5, 1, 1), (1, 0, 1), InvalidPathError, "height 0 at position 1 out of range"),
    (RsosPath, (3, 6, 2, 1), (2, 1), InvalidPathError, "need coprime 1 < p < p', got (3, 6)"),
    (HalfPath, (8, 2, 2), (2, 3, 4, 3, 4, 3, 4, 3, 2), hp.InvalidHalfPathError,
     "valley at non-integer height 3/2 (doubled position 3)"),
    (HalfPath, (8, 6, 8), (6, 7, 8), hp.InvalidHalfPathError, "tail height B=8 out of range 2..7"),
    (HalfPath, (8, 2, 2), (2, 3, 2, 1, 2), hp.InvalidHalfPathError,
     "height 1 at doubled position 3 out of range 2..8"),
)


@pytest.mark.parametrize("cls,label,stored,kind,message", _BROKEN)
def test_every_way_of_building_a_path_refuses_a_broken_one(cls, label, stored, kind, message):
    # `of`, the line reader, the raw constructor and `dataclasses.replace`
    # each refuse the path when they build it, with `of`'s message
    valid = RsosPath.of(3, 5, 2, 1, (2, 1)) if cls is RsosPath else HalfPath.of(8, 2, 2, (2,))
    fields = {f.name: v for f, v in zip(dataclasses.fields(cls), (*label, stored))}
    refusal = (kind, message)
    assert _refusal(cls.of, *label, stored) == refusal
    assert _refusal(cls.from_line, _line(cls, label, stored)) == refusal
    assert _refusal(cls, *label, stored) == refusal
    assert _refusal(lambda: dataclasses.replace(valid, **fields)) == refusal


@pytest.mark.parametrize("cls,label,start,strip,kind,message", [
    (RsosPath, (3, 5, 2, 1), 2, (1, 4), InvalidPathError, "path must start at a=2, got 3"),
    (HalfPath, (8, 2, 2), 2, (2, 8), hp.InvalidHalfPathError, "path must start at A=2, got 3")])
def test_a_listed_path_is_read_when_it_is_listed(cls, label, start, strip, kind, message):
    # listing builds each path through the model's constructor, so a walk
    # from another start is refused as its first path is listed
    assert _refusal(next, _listed(cls, label, start + 1, *strip)) == (kind, message)
    first = next(_listed(cls, label, start, *strip))
    assert dataclasses.astuple(first)[-1][0] == start


@pytest.mark.parametrize("model", ["rsos", "half"])
def test_every_way_of_building_a_path_keeps_the_oracle_scan(model):
    # a valid path carries the scan the oracle computes from its fields,
    # however it was built: by `of`, from its line, raw, by
    # `dataclasses.replace`, by listing or by a bijection stage on its frame
    if model == "rsos":
        cls, oracle, labels = RsosPath, oracles.rsos_scan, [(3, 5, 2, 1), (4, 9, 8, 6), (5, 9, 2, 3)]
        listing = rsos.enumerate_paths
    else:
        cls, oracle, labels = HalfPath, oracles.half_scan, [(8, 2, 2), (9, 4, 6), (7, 2, 6)]
        listing = hp.enumerate_paths
    seen = 0
    for label in labels:
        for listed in listing(*label, 8):
            fields = dataclasses.astuple(listed)
            scan = oracle(*fields)
            stage = bijections._Stage("a stage", cls, fields[:-1],
                                      lattice.frame(fields[-1], fields[-2]))
            for path in (listed, cls.of(*fields), cls.from_line(listed.to_line()), cls(*fields),
                         dataclasses.replace(listed), stage.path):
                assert path == listed and path._scan == scan, path.to_line()
            seen += 1
    assert seen > 100
