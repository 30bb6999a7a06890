"""The core both path models share: walks in a strip that end oscillating
in a tail band {b, b+1}.

RSOS paths and half-lattice paths differ only in their step rules, vertex
costs and search bounds.  Everything else lives here: parsing the one-line
path formats, the canonical horizon of a height list (`frame`) and the
storage it gives (`canonical`), tail continuation, the peak and valley
scan of raw heights, and one bounded path search.  A path is read when it
is built: each model's dataclass constructor runs its `_read`, one pass
that checks every path rule (label, start, tail band, heights, steps,
end), finds the horizon through `frame`, refuses storage other than the
canonical one and scans the vertices, and the path keeps the scan.  So
`of`, `from_line`, listing, `dataclasses.replace` and a raw constructor
call all read a path the same way, and `frame` is the one statement of
canonical storage.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import partial
from operator import add, index

from .qseries import _merge


class InvalidPathError(ValueError):
    """Raised for malformed path lines and sequences violating the path constraints."""


def parse_fields(line: str, kind: str, names: tuple[str, ...]) -> dict[str, str]:
    """The `key=value` fields of a `kind` path line; all names are required."""
    parts = line.strip().split()
    if not parts or parts[0] != kind:
        raise InvalidPathError(f"expected a {kind!r} line, got {line!r}")
    fields: dict[str, str] = {}
    for part in parts[1:]:
        if "=" not in part:
            raise InvalidPathError(f"malformed field {part!r}")
        key, value = part.split("=", 1)
        if key in fields:
            raise InvalidPathError(f"repeated field {key!r} in {kind!r} line")
        fields[key] = value
    missing = [n for n in names if n not in fields]
    if missing:
        raise InvalidPathError(f"missing fields {missing} in {kind!r} line")
    return fields


def frame(hs: Sequence[int], b: int) -> tuple[int, list[int]]:
    """The canonical horizon L of a height list and its heights at 0..L+1,
    the tail oscillation continued: L is the first even position from which
    every height lies in the tail band {b, b+1}.  Only the final band run is
    read here, back from the end, and only where it alternates, so every
    height past L is a unit step in the band, which the path's reader has
    checked lies inside the strip; the reader checks the heights up to L.
    A list that does not end in the band is refused after its other checks:
    it is framed as it stands, its last height repeated.
    """
    start = len(hs) - 1
    if hs[start] not in (b, b + 1):
        return start, [*hs, hs[start]]
    # from a band height, the run goes back while the height before it is
    # the band's other height, the one it sums with to 2b + 1
    while start and hs[start - 1] + hs[start] == 2 * b + 1:
        start -= 1
    horizon = start + start % 2
    return horizon, padded(hs, b, horizon + 1)


def tail_height(stored: tuple[int, ...], b: int, x: int) -> int:
    """Height at position x >= 0, continuing the tail oscillation."""
    horizon = len(stored) - 1
    if x <= horizon:
        return stored[x]
    last = stored[-1]
    if (x - horizon) % 2 == 0:
        return last
    return b + 1 if last == b else b


def padded(stored: Sequence[int], b: int, upto: int) -> list[int]:
    """Heights at positions 0..upto, continuing the tail oscillation."""
    out = list(stored[: upto + 1])
    beyond = upto - (len(stored) - 1)  # tail heights past the horizon
    if beyond > 0:
        last = stored[-1]
        flip = b + 1 if last == b else b
        out += ([flip, last] * ((beyond + 1) // 2))[:beyond]
    return out


def canonical(heights, b: int) -> tuple[int, ...]:
    """The heights of a path as its constructor takes them: whole numbers
    (`operator.index`, so a float or a string raises `TypeError`), stored
    through the canonical horizon that `frame` finds.  Empty input stays
    empty, for the path's read to refuse after its label checks.
    """
    hs = list(map(index, heights))
    if not hs:
        return ()
    horizon, seq = frame(hs, b)
    return tuple(seq[:horizon + 1])


def turns(hs: Sequence[int], hi: int) -> tuple[list[int], list[int]]:
    """The peaks and the valleys at positions 1 <= i < hi of a unit-step
    sequence, found in one scan: with unit steps, i turns exactly when
    hs[i-1] == hs[i+1], and it is a peak when hs[i] lies above them.
    """
    peaks: list[int] = []
    valleys: list[int] = []
    for i, before, h, after in zip(range(1, hi), hs, hs[1:], hs[2:]):
        if before == after:
            (peaks if h > before else valleys).append(i)
    return peaks, valleys


class PathSet:
    """The paths one `search` found.  `counts[k]` is the number of paths of
    cost k <= budget, known before any path is listed, and `len()` is their
    sum.  Iteration lists the paths in height order, each built from its
    height tuple by `build`, by a pre-order walk, lower step first, that
    descends only where a completion fits the budget.

    Counting builds nothing the walk needs.  The first iteration builds it:
    `forward` runs the search's forward pass again, recording each state's
    surviving steps and carrying no counts, and a backward pass over those
    layers gives each state its least completion cost, all the walk needs
    to prune.
    """

    def __init__(self, counts: list[int], forward=None, build=tuple) -> None:
        self.counts = counts  # one entry per cost 0..budget
        self._forward = forward  # the recording rerun, None for no paths
        self._build = build
        self._root = None  # the walk's first entry, built on first iteration

    def __len__(self) -> int:
        return sum(self.counts)

    def __iter__(self):
        if self._root is None and self._forward is not None:
            layers: list[dict] = []
            self._forward(layers)
            self._root = _walk_root(layers, len(self.counts) - 1)
        budget, build, hs = len(self.counts) - 1, self._build, []
        todo = [self._root] if self._root else []
        while todo:
            x, h, w, (junction, kids) = todo.pop()
            del hs[x:]
            hs.append(h)
            if junction is not None and w + junction <= budget:
                yield build(tuple(hs))
            for nh, c, need, node in kids:
                if w + need <= budget:
                    todo.append((x + 1, nh, w + c, node))


def search(start: int, b: int, lo: int, hi: int, budget: int, horizon: int,
           cost, future, leave, what: str, build=tuple) -> PathSet:
    """Every canonical path of unit steps in heights lo..hi, from `start`
    into the tail band {b, b+1}, whose accumulated cost stays within budget:
    a `PathSet` that counts them by cost and lists them through `build`.

    The model enters through three functions:

    * `cost(x, prev, h, nh)`: what vertex x >= 1 at height h adds when it is
      entered from prev and left to nh, or None when that step is forbidden;
    * `future(x, h)`: a lower bound on what any completion from height h at
      position x still adds, the vertex at x included;
    * `leave(x)`: a lower bound on the cost of leaving the tail band at any
      position >= x and coming back: what any completion still adds from
      position x on when the heights at x-2, x-1 and x all lie in the band
      (a run, which must leave the band before it can end).

    The startpoint adds nothing, and tail vertices past the horizon add
    nothing, so a path's cost is complete once its junction vertex (the
    horizon) is costed against the tail.

    Everything ahead of a node depends only on its position and its state
    (prev, h, run), where run means that the last three heights all lie in
    the band; so the search counts in one forward pass over states, layer by
    layer: the counting recursion of the 1D configuration sums (Andrews,
    Baxter and Forrester, J. Stat. Phys. 35, 1984).  Each live state carries
    its least reach cost w and a list whose k-th entry counts the prefixes
    that reach it at cost w + k, cut at its room: the budget less the larger
    of the bounds that apply to it.  A step shifts the list by its vertex
    cost, and lists that meet in one state add; a junction state adds its
    list, shifted by the junction cost, into the result.  Steps are pruned
    by the budget and both bounds.  A bound may never exceed what a
    completion really costs, or paths go missing; below that, the tighter
    it is, the fewer states carry counts of prefixes that cannot finish
    within the budget, so the models' bounds count every costed vertex a
    completion is forced to pass, not just one.  The hard horizon only
    guards against a search that never ends: a state still live past it
    raises, so a result is exactly what an unbounded search would return.
    Nothing for listing is built until the path set is first iterated.
    """
    counts = _forward(start, b, lo, hi, budget, horizon, cost, future, leave, what)
    if not any(counts):
        return PathSet(counts)
    return PathSet(counts, partial(_forward, start, b, lo, hi, budget, horizon,
                                   cost, future, leave, what), build)


def _forward(start, b, lo, hi, budget, horizon, cost, future, leave, what,
             layers=None) -> list[int] | None:
    """The forward pass of `search`: the counts by cost.  Lists that meet in
    a state are added by `qseries._merge`.  Given a list as `layers`, it
    records instead of counting, and returns None: it appends, per layer,
    each live state's least reach cost, junction cost (None off the
    horizons) and surviving steps (nh, vertex cost, child state).  A
    recording state carries an empty list, since pruning reads only the
    least reach cost, so it keeps exactly the states and steps counting
    keeps and adds nothing anywhere.
    """
    band = (b, b + 1)
    record = layers is not None
    counts = [0] * (budget + 1)
    reach = {(None, start, False): (0, [] if record else [1])}  # state: (least reach cost, counts)
    x = 0
    while reach:
        if x > horizon:
            raise AssertionError(
                f"enumeration did not stabilize: a step is still live at "
                f"horizon {horizon} for {what}"
            )
        steps = {}
        nxt: dict = {}
        stay = budget - leave(x + 1)  # the room of a state in a run
        for state, (w, vec) in reach.items():
            prev, h, run = state
            junction = None
            if x % 2 == 0 and h in band and not run:
                # a canonical horizon: the junction vertex is costed against
                # the tail that follows it
                junction = cost(x, prev, h, b + 1 if h == b else b) if x else 0
                s = w + junction
                if s <= budget:
                    tail = vec[:budget + 1 - s]
                    counts[s:s + len(tail)] = map(add, counts[s:], tail)
            out = []
            for nh in (h - 1, h + 1):
                if not lo <= nh <= hi:
                    continue
                c = 0
                if x:
                    c = cost(x, prev, h, nh)
                    if c is None:
                        continue
                w2 = w + c
                if w2 > budget:
                    continue
                room = budget - future(x + 1, nh)
                nrun = prev in band and h in band and nh in band
                if nrun and stay < room:
                    room = stay
                if w2 > room:
                    continue
                child = (h, nh, nrun)
                if record:
                    out.append((nh, c, child))
                _merge(nxt, child, w2, vec[:room + 1 - w2])
            if record:
                steps[state] = (w, junction, out)
        if record:
            layers.append(steps)
        reach = nxt
        x += 1
    return None if record else counts


def _walk_root(layers: list[dict], budget: int) -> tuple:
    """The listing walk's first entry, from the recorded forward layers.  A
    backward pass gives each state its least completion cost and its walk
    node, (junction cost or None, [(nh, c, c + child's least cost, child
    node)], higher step first, so the walk pops the lower one first).  Steps
    and states with no completion within the budget are dropped.
    """
    below: dict = {}
    for steps in reversed(layers):
        here = {}
        for state, (w, junction, out) in steps.items():
            room = budget - w
            if junction is not None and junction > room:
                junction = None
            least = room + 1 if junction is None else junction
            kids = []
            for nh, c, child in reversed(out):
                if child in below:
                    need, node = below[child]
                    need += c
                    if need <= room:
                        kids.append((nh, c, need, node))
                        if need < least:
                            least = need
            if least <= room:
                here[state] = (least, (junction, kids))
        below = here
    (state, (_, node)), = below.items()
    return 0, state[1], 0, node
