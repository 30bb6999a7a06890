import ast
import dataclasses
import gc
import os
import random
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from math import gcd
from pathlib import Path
from unittest import mock

import pytest

from viracomb import halfpath as hp
from viracomb import lattice
from viracomb import particles
from viracomb import rsos
from viracomb import verify
from viracomb.characters import CharacterLabel, bosonic_character, theorem1_label
from viracomb.halfpath import HalfPath
from viracomb.rsos import RsosPath

import oracles
from data_paths import DISSECT_10, HALF_10, RSOS_49, half_ok, walk

SRC = Path(__file__).resolve().parents[1] / "src"


def test_parse_fields():
    fields = lattice.parse_fields("half T=8 A=2 B=2 H=2,3,2\n", "half", ("T", "H"))
    assert fields == {"T": "8", "A": "2", "B": "2", "H": "2,3,2"}
    for bad in ("rsos T=8 H=2", "half T=8 H", "half T=8", "", "half T=8 H=2 T=6"):
        with pytest.raises(lattice.InvalidPathError):
            lattice.parse_fields(bad, "half", ("T", "H"))


def canonical(hs, b):
    """The storage `lattice.frame` gives a path's constructor."""
    return tuple(lattice.frame(list(hs), b)[:-1])


def test_canonical_trims_and_extends():
    assert canonical([4, 3, 2, 3, 2, 3, 2], 2) == (4, 3, 2)
    assert canonical([4, 3], 2) == (4, 3, 2)  # the horizon is even
    assert canonical([2], 2) == (2,)
    # the run read back from the end stops where the heights leave the band
    # or stop alternating, for the reader to refuse
    assert canonical([7, 8, 9, 8, 9], 8) == (7, 8, 9)
    assert canonical([7, 8, 9, 8, 9], 9) == (7, 8, 9, 8, 9)
    assert canonical([8, 9], 9) == (8, 9, 10)
    assert canonical([5, 4, 3, 3, 2], 2) == (5, 4, 3, 3, 2)


def test_is_canonical_agrees_with_canonical():
    # every unit-step sequence on 1..10 of at most 8 heights ending in {3, 4},
    # built raw, is refused by its constructor exactly when the independent
    # oracle stores it otherwise
    seqs = []
    todo = [[h] for h in range(1, 11)]
    while todo:
        hs = todo.pop()
        if hs[-1] in (3, 4):
            seqs.append(hs)
        if len(hs) < 8:
            todo += [hs + [nh] for nh in (hs[-1] - 1, hs[-1] + 1) if 1 <= nh <= 10]
    assert len(seqs) == 421
    refused = 0
    for hs in seqs:
        try:
            RsosPath(4, 11, hs[0], 3, tuple(hs))
        except lattice.InvalidPathError as exc:
            line = f"rsos p=4 pp=11 a={hs[0]} b=3 h={','.join(map(str, hs))}"
            assert str(exc) == f"path not stored canonically: {line}"
            assert oracles.canonical(hs, 3) != tuple(hs), hs
            refused += 1
        else:
            assert oracles.canonical(hs, 3) == tuple(hs), hs
    assert 0 < refused < len(seqs)


def test_tail_continuation():
    stored = (5, 4, 3, 2)
    assert lattice.padded(stored, 2, 7) == [5, 4, 3, 2, 3, 2, 3, 2]
    assert lattice.padded(stored, 2, 1) == [5, 4]


def test_a_frame_is_framed_as_it_is():
    # a list that is already its own frame comes back as it is, not copied;
    # any other input, a tuple or a list that frames otherwise, is left as
    # it was and framed into a new list
    for hs, b in (([4, 3, 2, 3], 2), ([2, 3], 2), ([7, 8, 9, 8, 9], 8), ([5, 4, 3, 3], 2)):
        framed = lattice.frame(hs, b)
        assert lattice.frame(framed, b) is framed
        as_tuple = tuple(framed)
        again = lattice.frame(as_tuple, b)
        assert type(again) is list and again == framed and as_tuple == tuple(framed)
    long = [4, 3, 2, 3, 2, 3, 2]
    assert lattice.frame(long, 2) == [4, 3, 2, 3] and long == [4, 3, 2, 3, 2, 3, 2]


def test_half_heights_continue_the_tail_from_padded():
    # `height` reads the one tail rule, `padded`, past the horizon, H(-1) = A + 1
    # before the start, and nothing further left; up to the horizon it reads
    # the stored heights, so walking a path by `height` costs O(L), not O(L^2)
    for path in (HalfPath.of(*HALF_10), HalfPath.of(8, 6, 2, [6, 5, 4, 3, 2])):
        assert [path.height(i) for i in range(path.horizon + 18)] == \
            [path.padded(i)[i] for i in range(path.horizon + 18)]
        with mock.patch.object(lattice, "padded", wraps=lattice.padded) as tail:
            assert [path.height(i) for i in range(path.horizon + 1)] == list(path.doubled)
        assert tail.call_count == 0
        assert path.height(-1) == path.a2 + 1
        with pytest.raises(IndexError, match="doubled positions start at -1"):
            path.height(-2)


def test_peaks():
    hs = [2, 3, 4, 3, 4, 5, 4, 3, 2, 3]
    assert lattice.turns(hs, len(hs) - 1) == [2, 5]
    assert lattice.turns(hs, 8) == [2, 5]
    assert lattice.turns(hs, 5) == [2]
    assert lattice.turns(hs, 2) == []
    assert lattice.turns([2], 0) == []


def _free_walk(start: int, top: int, what: str) -> lattice.Model:
    """A search from `start` in the strip 1..top into the tail band {2, 3},
    within budget 0 and hard horizon 4, where every vertex, bound and run
    costs nothing.
    """
    return lattice.Model(start, 2, 1, top, 0, 4, what, lambda *vertex: lattice.FREE,
                         [lattice.FREE] * (top + 1), lambda x: 0)


def test_search_demands_a_stable_horizon():
    # with no bounds and a free walk, paths keep appearing past any horizon
    with pytest.raises(lattice.InvariantError, match="^search: enumeration did not stabilize"):
        lattice.search(_free_walk(4, 5, "a free walk"))


def test_search_refuses_a_live_branch_at_the_horizon():
    # paths exist, but from a start this far above the band they enter it
    # only from position 9 on, past the horizon; the search must not return
    # an empty set
    with pytest.raises(lattice.InvariantError) as info:
        lattice.search(_free_walk(12, 12, "a late band"))
    assert str(info.value) == ("search: enumeration did not stabilize: a step is still live at"
                               " horizon 4: a late band")


def test_an_off_grain_cost_raises():
    # an up step costs one and a down step nothing, so prefixes of one
    # length meet in a state at costs of both parities: counting every
    # second cost only, the search must refuse to merge them
    updown = lambda prev, h, nh: (0, 0, 1, 1) if nh > h else lattice.FREE
    odd = dataclasses.replace(_free_walk(3, 5, "an odd walk"), step=updown, budget=8, horizon=40)
    assert sum(lattice.search(odd).counts) > 0
    with pytest.raises(lattice.InvariantError,
                       match="^search: costs .* off the grain 2: an odd walk$"):
        lattice.search(dataclasses.replace(odd, grain=2))


def test_the_step_rule_is_read_once_per_state():
    # each state's moves are built from the model's step rule on its first
    # visit in a search, not once per layer: the rule is asked about each
    # (prev, h, nh) at most twice, once per run flag
    for enumerate_paths, label in ((rsos.enumerate_paths, (5, 11, 8, 2)),
                                   (hp.enumerate_paths, (8, 2, 2))):
        model = _model(enumerate_paths, *label, 60)
        tables: dict = {}
        _, depth = lattice._forward(model, tables)
        asked = Counter()
        step = lambda *vertex: asked.update([vertex]) or model.step(*vertex)
        counted = lattice.search(dataclasses.replace(model, step=step)).counts
        assert counted == enumerate_paths(*label, 60).counts
        assert depth > 60 and sum(asked.values()) <= 2 * len(tables), label
        assert max(asked.values()) <= 2, label


def test_listing_reuses_the_counting_step_tables():
    # a path set's walk is built from the step tables its counting pass
    # filled: listing reads no state's steps again
    for enumerate_paths, label in ((rsos.enumerate_paths, (5, 11, 8, 2)),
                                   (hp.enumerate_paths, (8, 2, 2))):
        with mock.patch.object(lattice, "_moves", wraps=lattice._moves) as moves:
            paths = enumerate_paths(*label, 16)
            counted = moves.call_count
            assert len(list(paths)) == len(paths) > 100
        codes = [c.args[1] for c in moves.call_args_list]
        assert moves.call_count == counted == len(set(codes)), label


def test_listing_runs_no_second_search():
    # counting is the search's one forward pass: a path set listed twice
    # builds its walk once, from the tables counting filled, and searches
    # no more
    for enumerate_paths, label in ((rsos.enumerate_paths, (5, 11, 8, 2)),
                                   (hp.enumerate_paths, (8, 2, 2))):
        with mock.patch.object(lattice, "_forward", wraps=lattice._forward) as forward, \
                mock.patch.object(lattice, "_walk_root", wraps=lattice._walk_root) as walk:
            paths = enumerate_paths(*label, 16)
            listed = list(paths)
            assert list(paths) == listed and len(listed) == len(paths) > 100
        assert forward.call_count == walk.call_count == 1, label


def _walked_prefixes(paths: lattice.PathSet) -> set[tuple[int, ...]]:
    """The height prefixes a path set's walk visits, re-walked from a fresh
    `_walk_root` with the walk's pruning.
    """
    _, h, w, node = lattice._walk_root(paths._model, paths._tables, paths._depth)
    budget, seen, todo = len(paths.counts) - 1, set(), [((h,), w, node)]
    while todo:
        hs, w, (_, kids) = todo.pop()
        seen.add(hs)
        todo += [(hs + (nh,), w + c, kid) for nh, c, need, kid in kids if w + need <= budget]
    return seen


def test_the_walk_visits_only_prefixes_of_listed_paths():
    # the walk's pruning is exact: it enters a prefix exactly when some
    # listed path extends it, so listing costs follow the output
    for paths in (rsos.enumerate_paths(5, 11, 8, 2, 12), hp.enumerate_paths(9, 4, 6, 12)):
        stored = [dataclasses.astuple(path)[-1] for path in paths]
        assert len(stored) == len(paths) > 50
        prefixes = {hs[:i] for hs in stored for i in range(1, len(hs) + 1)}
        assert _walked_prefixes(paths) == prefixes


def test_search_leaves_no_garbage():
    # nothing a search builds refers to itself, so reference counting frees
    # it all on return, or once a listing ends, and the cyclic collector
    # finds nothing
    gc.collect()
    gc.disable()
    try:
        rsos.enumerate_paths(3, 5, 2, 1, 6)
        hp.enumerate_paths(8, 2, 2, 6)
        assert len(list(rsos.enumerate_paths(4, 9, 8, 6, 8))) > 20
        assert gc.collect() == 0
    finally:
        gc.enable()


# The generating functions count paths by weight in the search's counting
# pass and list none, so the listing is their independent oracle: on every
# label of acceptance criterion 3f, the paths the walk lists, weighed one
# by one, must give the same series, and as many paths as `len()` counts.
# The paths come in strictly increasing height order without a sort.

ORDER = 10
RSOS_FAMILIES = [(p, pp) for pp in range(3, 14) for p in range(2, pp) if gcd(p, pp) == 1]


def _histogram(paths, weigh, order=ORDER) -> list[int]:
    counts = [0] * (order + 1)
    for path in paths:
        counts[weigh(path)] += 1
    return counts


@pytest.mark.parametrize("p,pp", RSOS_FAMILIES)
def test_rsos_search_weights_match_weight(p, pp):
    for a in range(1, pp):
        for b in sorted(rsos.dark_floors(p, pp)):
            paths = rsos.enumerate_paths(p, pp, a, b, ORDER)
            listed = list(paths)
            gf = rsos.generating_function(p, pp, a, b, ORDER)
            assert _histogram(listed, rsos.weight) == list(gf.coeffs), (p, pp, a, b)
            assert len(paths) == len(listed) == sum(gf.coeffs)
            heights = [x.heights for x in listed]
            assert all(u < v for u, v in zip(heights, heights[1:])), (p, pp, a, b)


@pytest.mark.parametrize("t2", range(4, 15))
def test_half_search_weights_match_weight(t2):
    for a2 in range(2, t2 + 1, 2):
        for b2 in range(2, t2 + 1, 2):
            if not hp.theorem1_domain(t2, a2, b2):
                continue
            paths = hp.enumerate_paths(t2, a2, b2, ORDER)
            listed = list(paths)
            gf = hp.generating_function(t2, a2, b2, ORDER)
            assert _histogram(listed, hp.weight) == list(gf.coeffs), (t2, a2, b2)
            assert len(paths) == len(listed) == sum(gf.coeffs)
            heights = [x.doubled for x in listed]
            assert all(u < v for u, v in zip(heights, heights[1:])), (t2, a2, b2)


def test_counting_reaches_past_the_listing_window():
    # 6.8e9 paths at q^120: far too many to list, and generating_function
    # never asks for len(), which raises OverflowError past sys.maxsize
    def no_len(self):
        raise AssertionError("generating_function took the length of a path set")

    r = rsos.tail_band_index(5, 11, 2)
    with mock.patch.object(lattice.PathSet, "__len__", no_len):
        x = rsos.generating_function(5, 11, 8, 2, 120)
        y = hp.generating_function(8, 2, 2, 60)
    assert x == bosonic_character(CharacterLabel(5, 11, r, 8), 120)
    assert sum(x.coeffs) > 6 * 10**9
    assert y == bosonic_character(theorem1_label(8, 1, 1), 60)


def test_counting_never_lists():
    # the counts come from the forward pass alone: nothing a listing needs
    # is built until a path set is iterated
    def no_listing(*args):
        raise AssertionError("counting built the listing walk")

    r = rsos.tail_band_index(5, 11, 2)
    with mock.patch.object(lattice.PathSet, "__iter__", no_listing), \
            mock.patch.object(lattice, "_walk_root", no_listing):
        x = rsos.generating_function(5, 11, 8, 2, 120)
        y = hp.generating_function(8, 2, 2, 60)
    assert x == bosonic_character(CharacterLabel(5, 11, r, 8), 120)
    assert y == bosonic_character(theorem1_label(8, 1, 1), 60)


def test_a_path_set_retains_only_its_counts():
    # a counted path set keeps its counts and what a later listing needs,
    # the model and its step tables, not the search's states
    rsos.enumerate_paths(5, 11, 8, 2, 4)  # the memo of dark floors is filled
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        paths = rsos.enumerate_paths(5, 11, 8, 2, 120)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(paths.counts) == 121
    assert retained < 64 * 1024, retained


# The benchmark checks Theorem 1 at q^12 and q^16, so the listing oracle
# runs there too, on the label with the most paths of each family of
# `verify theorem1` and on (A, B) = (2, 2) for every T it covers.

DEEP = 16


@pytest.mark.parametrize("p,pp", verify.RSOS_FAMILIES)
def test_rsos_listing_matches_counting_at_depth(p, pp):
    labels = [(a, b) for a in range(1, pp) for b in sorted(rsos.dark_floors(p, pp))]
    a, b = max(labels, key=lambda ab: len(rsos.enumerate_paths(p, pp, *ab, DEEP)))
    paths = rsos.enumerate_paths(p, pp, a, b, DEEP)
    listed = list(paths)
    gf = rsos.generating_function(p, pp, a, b, DEEP)
    assert _histogram(listed, rsos.weight, DEEP) == list(gf.coeffs), (p, pp, a, b)
    assert len(paths) == len(listed)


@pytest.mark.parametrize("t2", range(4, 13))
def test_half_listing_matches_counting_at_depth(t2):
    paths = hp.enumerate_paths(t2, 2, 2, DEEP)
    listed = list(paths)
    gf = hp.generating_function(t2, 2, 2, DEEP)
    assert _histogram(listed, hp.weight, DEEP) == list(gf.coeffs), t2
    assert len(paths) == len(listed)


# -- the search bounds --------------------------------------------------------


def _model(enumerate_paths, *args) -> lattice.Model:
    """The record a model hands to `lattice.search` for these arguments."""
    with mock.patch.object(lattice, "search", wraps=lattice.search) as search:
        enumerate_paths(*args)
    return search.call_args.args[0]


def _closures(enumerate_paths, *args):
    """The cost, future and leave functions of the record a model hands to
    `lattice.search`: its step rule and bounds, each form evaluated at a
    position as the search evaluates it, and its `leave`.
    """
    model = _model(enumerate_paths, *args)
    at = lambda form, x: form[0] * ((x + form[1]) // form[2]) + form[3]
    return (lambda x, prev, h, nh: at(model.step(prev, h, nh), x),
            lambda x, h: at(model.bounds[h], x), model.leave)


def _check_bounds(closures, hs: tuple[int, ...], b: int, total: int) -> None:
    """Cost every vertex of the canonical storage hs, the junction against
    the tail; the costs must add up to total, and at every position x the
    bounds may not exceed what the vertices x..L cost.
    """
    cost, future, leave = closures
    horizon = len(hs) - 1
    hs = lattice.padded(hs, b, horizon + 1)
    rest = [0] * (horizon + 2)  # rest[x]: the cost of the vertices x..L
    for x in range(horizon, 0, -1):
        rest[x] = rest[x + 1] + cost(x, hs[x - 1], hs[x], hs[x + 1])
    assert rest[1] == total, hs
    for x in range(1, horizon + 1):
        assert future(x, hs[x]) <= rest[x], (hs, x)
        if x >= 2 and {hs[x - 2], hs[x - 1], hs[x]} <= {b, b + 1}:
            assert leave(x) <= rest[x], (hs, x)


def test_rsos_bounds_are_admissible():
    # seeded random paths of any weight, most far above the budget the
    # closures were made for: no bound may overestimate what is left
    rnd = random.Random(19)
    weights = []
    for p, pp in RSOS_FAMILIES:
        for _ in range(24):
            a = rnd.randint(1, pp - 1)
            b = rnd.choice(sorted(rsos.dark_floors(p, pp)))
            closures = _closures(rsos.enumerate_paths, p, pp, a, b, 4)
            path = RsosPath.of(p, pp, a, b, walk(rnd, a, 1, pp - 1, b, rnd.randint(0, 60)))
            weights.append(rsos.weight(path))
            _check_bounds(closures, path.heights, b, weights[-1])
    assert max(weights) > 100


def test_half_bounds_are_admissible():
    rnd = random.Random(19)
    weights = []
    for t2 in range(4, 15):
        labels = [(a2, b2) for a2 in range(2, t2 + 1, 2) for b2 in range(2, t2 + 1, 2)
                  if hp.theorem1_domain(t2, a2, b2)]
        for _ in range(40):
            a2, b2 = rnd.choice(labels)
            closures = _closures(hp.enumerate_paths, t2, a2, b2, 4)
            g = HalfPath.of(t2, a2, b2, walk(rnd, a2, 2, t2, b2, rnd.randint(0, 90), half_ok))
            weights.append(hp.weight(g))
            total = 4 * weights[-1] + hp._ground_quarters(t2, a2, b2)
            _check_bounds(closures, g.doubled, b2, total)
    assert max(weights) > 100


def _useful_share(enumerate_paths, *args) -> float:
    """The share of the states the search keeps live that have a completion
    within the budget, by a backward pass of least completions over the
    states of a reference pass, which must be the ones counting meets.
    """
    model = _model(enumerate_paths, *args)
    layers = oracles.search_states(model)
    tables: dict = {}
    _, depth = lattice._forward(model, tables)
    assert set().union(*layers) == set(tables) and len(layers) == depth, args
    least: dict = {}  # the least completion cost of each state of the layer below
    useful = total = 0
    for steps in reversed(layers):
        here = {}
        for state, (w, junction, out) in steps.items():
            ends = [c + least[child] for c, child in out if child in least]
            if junction is not None:
                ends.append(junction)
            if ends:
                here[state] = min(ends)
                useful += w + here[state] <= model.budget
        total += len(steps)
        least = here
    return useful / total


@pytest.mark.parametrize("order", [16, 60])
def test_the_search_keeps_few_states_without_a_completion(order):
    # the bounds count every costed vertex a completion is forced to pass,
    # so nearly all live states can still finish within the budget, and on
    # these half-path labels every one can
    for label in ((5, 11, 8, 2), (6, 13, 3, 10), (4, 9, 8, 6), (3, 7, 4, 4)):
        share = _useful_share(rsos.enumerate_paths, *label, order)
        assert share >= 0.85, (label, share)
    for label in ((8, 2, 2), (12, 2, 2), (7, 6, 2)):
        assert _useful_share(hp.enumerate_paths, *label, order) == 1, label


def _memo_uses(path: Path) -> list[str]:
    """Every use of a functools memo in a module: the function it decorates,
    or the line it stands on when it decorates nothing.
    """
    tree = ast.parse(path.read_text())
    names = ("lru_cache", "cache")

    def is_memo(node) -> bool:
        return (isinstance(node, ast.Name) and node.id in names) or (
            isinstance(node, ast.Attribute) and node.attr in names
            and isinstance(node.value, ast.Name) and node.value.id == "functools")

    uses, decorating = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if is_memo(target):
                    decorating.add(id(target))
                    uses.append(f"{path.stem}.{node.name}")
    uses += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
             if is_memo(node) and id(node) not in decorating]
    return uses


def test_no_result_cache():
    # the one memo is rsos.dark_floors, keyed on (p, p'): speed must come
    # from the algorithms, not from remembering the results of repeated labels
    uses = [u for f in sorted((SRC / "viracomb").glob("*.py")) for u in _memo_uses(f)]
    assert uses == ["rsos.dark_floors"]


def test_no_tuple_from_generator():
    # a tuple built from a generator is resized as it grows, one built from
    # a list is allocated once at its size: the bijections build many small
    # tuples, and the resized ones kept their memory held longer
    sites = [f"{f.stem}:{node.lineno}" for f in sorted((SRC / "viracomb").glob("*.py"))
             for node in ast.walk(ast.parse(f.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "tuple" and node.args
             and isinstance(node.args[0], ast.GeneratorExp)]
    assert sites == []


def _names(node) -> set:
    """The names a node states: a name, an attribute, a class or an import."""
    return {getattr(node, field, None) for field in ("id", "attr", "name")} - {None}


def test_one_invariant_error_type():
    # a broken invariant is a `lattice.InvariantError` naming its stage and
    # its line, raised explicitly: no bare `raise AssertionError(...)`, and
    # no retired exception type defined, imported, raised or caught
    sites = [f"{f.stem}:{node.lineno}" for f in sorted((SRC / "viracomb").glob("*.py"))
             for node in ast.walk(ast.parse(f.read_text()))
             if isinstance(node, ast.Raise) and node.exc is not None
             and "AssertionError" in _names(getattr(node.exc, "func", node.exc))
             or isinstance(node, (ast.Name, ast.Attribute, ast.ClassDef, ast.alias))
             and _names(node) & {"StructureError", "DissectionError"}]
    assert sites == []


def test_only_the_path_core_reads_a_path_or_builds_one_bare():
    # `lattice.Path` holds the one read and the one build that skips the
    # constructor: no other module defines a `_read` or calls `object.__new__`
    sites = [f"{f.stem}:{node.lineno}" for f in sorted((SRC / "viracomb").glob("*.py"))
             if f.stem != "lattice"
             for node in ast.walk(ast.parse(f.read_text()))
             if isinstance(node, ast.FunctionDef) and node.name == "_read"
             or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "__new__" and _names(node.func.value) == {"object"}]
    assert sites == []


# -- what a path keeps of its own readings ------------------------------------


def _counting(owner, name):
    """Count the calls of owner.name, a function or a method, each call's
    arguments recorded as made (a method's with its instance).
    """
    return mock.patch.object(owner, name, autospec=True, side_effect=getattr(owner, name))


def test_equal_paths_built_apart_each_read_themselves():
    # each path is read once, when it is built, and weighing reads nothing
    for model, data, build in ((hp, HALF_10, HalfPath.of), (rsos, RSOS_49, RsosPath.of)):
        with _counting(lattice.Path, "_read") as reads:
            first, second = build(*data), build(*data)
        assert [c.args[0] for c in reads.call_args_list] == [first, second]
        assert all(c.args[0] is path for c, path in zip(reads.call_args_list, (first, second)))
        with _counting(lattice.Path, "_read") as reads:
            assert model.weight(first) == model.weight(second) == model.weight(first)
        assert reads.call_count == 0


def test_scan_hands_out_copies():
    # the scan a path keeps is all tuples, so no caller can change what
    # another reads; an equal path built apart keeps an equal scan
    for path, again in ((HalfPath.of(*HALF_10), HalfPath.of(*HALF_10)),
                        (RsosPath.of(*RSOS_49), RsosPath.of(*RSOS_49))):
        scan = path._scan
        assert isinstance(scan, tuple) and scan == again._scan
        assert all(isinstance(part, (int, tuple)) for part in scan)
        assert any(isinstance(part, tuple) and part for part in scan)


def test_refusals_are_not_kept():
    path = HalfPath.of(10, 4, 8, [4, 5, 6, 7, 8])
    with _counting(particles, "_dissect") as cuts:
        for _ in range(2):
            with pytest.raises(ValueError, match="from height 1 to height 1"):
                particles.dissect(path)
    assert cuts.call_count == 2


def test_a_read_path_is_the_same_value():
    read, unread = HalfPath.of(*DISSECT_10), HalfPath.of(*DISSECT_10)
    dis = particles.dissect(read)
    assert read == unread and hash(read) == hash(unread)
    assert (repr(read), read.to_line()) == (repr(unread), unread.to_line())
    assert dis == particles.dissect(read) == particles.dissect(unread)
    assert dis is not particles.dissect(read)  # a fresh dissection per call
    with _counting(lattice.Path, "_read") as reads, _counting(particles, "_dissect") as cuts:
        copy = dataclasses.replace(read)  # built through the constructor, so read
        assert particles.dissect(copy) == dis
        assert hp.weight(copy) == hp.weight(read)
    assert (reads.call_count, cuts.call_count) == (1, 1)
    # the memo holds no dissection, so no cycle keeps a path alive
    ref = weakref.ref(read)
    del read, dis
    assert ref() is None


def test_move_checks_hold_under_optimization():
    # this listed move breaks weight and sector; apply_move must refuse it,
    # the search must refuse a live branch at its horizon and two costs
    # that meet off its grain, and a bijection
    # must notice a weight that drifts between its stages and name the
    # stage and its path, and building a
    # path raw or by `dataclasses.replace` that does not start at its
    # label's start must refuse it, even when python -O strips asserts
    code = """
import dataclasses
import sys
from viracomb import bijections, lattice, particles
from viracomb.halfpath import HalfPath
from viracomb.rsos import RsosPath
line = "half T=8 A=2 B=2 H=2,3,4,5,6,7,8,7,6,7,6,5,4,5,6,7,8,7,6,5,4,5,4,5,4,3,2"
path = HalfPath.from_line(line)
move = next(m for m in particles.enumerate_moves(path)
            if m.particle.peak == 16 and m.owner.peak == 6)
print("optimize", sys.flags.optimize)

def attempt(call):
    try:
        call()
    except (AssertionError, lattice.InvalidPathError) as exc:
        print("raised:", exc)
    else:
        print("returned")

attempt(lambda: particles.apply_move(path, move))
free = lambda *vertex: lattice.FREE
late = lattice.Model(12, 2, 1, 12, 0, 4, "a late band", free, [lattice.FREE] * 13, lambda x: 0)
attempt(lambda: lattice.search(late))
updown = lambda prev, h, nh: (0, 0, 1, 1) if nh > h else lattice.FREE
odd = lattice.Model(3, 2, 1, 5, 8, 40, "an odd walk", updown, [lattice.FREE] * 6, lambda x: 0, 2)
attempt(lambda: lattice.search(odd))
particles.b_matrix = lambda t2: [[1]]  # an odd charge form
attempt(lambda: particles.minimal_weight(4, (1,)))
scan = HalfPath._scan_frame
HalfPath._scan_frame = staticmethod(lambda *frame: (lambda w, *rest: (w + 1, *rest))(*scan(*frame)))
rsos37 = RsosPath.from_line("rsos p=3 pp=7 a=4 b=4 h=4,5,6,5,6,5,4")
attempt(lambda: bijections.bij1_forward(rsos37))
attempt(lambda: RsosPath(3, 5, 2, 1, (3, 2, 1)))  # starts at 3, not at a = 2
attempt(lambda: dataclasses.replace(RsosPath.of(3, 5, 2, 1, (2, 1)), heights=(3, 2, 1)))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=env, check=True, timeout=120)
    assert out.stdout.splitlines() == [
        "optimize 1",
        "raised: apply_move: a move must add exactly one: half T=8 A=2 B=2"
        " H=2,3,4,5,6,5,4,5,4,5,6,5,4,5,6,7,8,7,6,5,4,5,4,5,4,3,2",
        "raised: search: enumeration did not stabilize: a step is still live at horizon 4:"
        " a late band",
        "raised: search: costs 1 and 2 meet in one state off the grain 2: an odd walk",
        "raised: minimal_weight: charge form 1 is odd: sector (1,) of T=4",
        "raised: bij1_forward reread: verbatim reread must preserve the weight:"
        " half T=6 A=4 B=4 H=4",
        "raised: path must start at a=2, got 3",
        "raised: path must start at a=2, got 3",
    ]
