"""The core both path models share: walks in a strip that end oscillating
in a tail band {b, b+1}.

RSOS paths and half-lattice paths differ only in their step rules, vertex
costs and search bounds.  Everything else lives here: parsing the one-line
path formats, the canonical horizon of a height list (`frame`) and the
storage it gives (`canonical`), tail continuation, the peak and valley
scan of raw heights, and one bounded path search.  Each model states a
search as one frozen record per label, `Model`: its costs and bounds are
affine forms in the position, data the search reads once per state and
evaluates inline, so counting calls no model function per step.

A path is read when it is built: each model's dataclass constructor runs
its `_read`, one pass that checks every path rule (label, start, tail
band, heights, steps, end), finds the horizon through `frame`, refuses
storage other than the canonical one and scans the vertices, and the path
keeps the scan.  So `of`, `from_line`, listing, `dataclasses.replace` and
a raw constructor call all read a path the same way, and `frame` is the
one statement of canonical storage.  `of` frames its heights once: it
makes the path `bare` and hands its read the frame `canonical` found.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial
from operator import add, index


class InvalidPathError(ValueError):
    """Raised for malformed path lines and sequences violating the path constraints."""


class InvariantError(AssertionError):
    """The program broke one of its own invariants, which no valid input
    reaches: `stage` names the function (for a bijection, the map and the
    stage) whose check failed, `detail` what broke, and `line` the offending
    path line, or the label or sector checked where there is no path.  An
    `AssertionError`, raised explicitly, so under `python -O` too.
    """

    def __init__(self, stage: str, detail: str, line: str) -> None:
        super().__init__(stage, detail, line)
        self.stage, self.detail, self.line = stage, detail, line

    def __str__(self) -> str:
        return f"{self.stage}: {self.detail}: {self.line}"


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
    out = list(stored) if upto + 1 >= len(stored) else list(stored[: upto + 1])
    beyond = upto - (len(stored) - 1)  # tail heights past the horizon
    if beyond > 0:
        last = stored[-1]
        flip = b + 1 if last == b else b
        out += ([flip, last] * ((beyond + 1) // 2))[:beyond]
    return out


def canonical(heights, b: int) -> tuple[tuple[int, ...], list[int] | None]:
    """The heights of a path as its constructor takes them, whole numbers
    (`operator.index`, so a float or a string raises `TypeError`) stored
    through the canonical horizon that `frame` finds, and that frame, the
    heights at 0..L+1, for the path's read.  Empty input stays empty, with
    no frame, for the read to refuse after its label checks.
    """
    hs = list(map(index, heights))
    if not hs:
        return (), None
    seq = frame(hs, b)[1]
    return tuple(seq[:-1]), seq


def bare(cls, *values):
    """An instance of the frozen path dataclass cls holding the field
    values in order, made without its constructor and so not read: `of`
    reads it on the frame it has already found, and a bijection stage, a
    path whose heights the map has framed, takes the vertex scan the stage
    made.
    """
    path = object.__new__(cls)
    vars(path).update(zip(cls.__dataclass_fields__, values))
    return path


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
    `forward` runs the search's forward pass again, on the step tables
    counting filled, recording each state's surviving steps and carrying
    no counts, and a backward pass over those layers gives each state its
    least completion cost, all the walk needs to prune.
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


FREE = (0, 0, 1, 0)  # the affine form of a vertex or a bound that costs nothing


@dataclass(frozen=True)
class Model:
    """One label's search, its model's rules as data.  Paths run in heights
    lo..hi from `start` into the tail band {b, b+1}, and a path is kept when
    its cost is at most `budget`.  Costs and bounds are affine forms
    (f, k, d, c), worth f * ((x + k) // d) + c at position x, and never
    negative:

    * `step(prev, h, nh)`: the form of what vertex x >= 1 at height h adds
      when it is entered from prev and left to nh, or None when that step
      is forbidden;
    * `bounds[h]`: the form of a lower bound on what any completion from
      height h at position x still adds, the vertex at x included (a list:
      a tuple built from a generator is resized, and the tuple free lists
      of a long-lived process then grow by one per search);
    * `leave(x)`: a lower bound on the cost of leaving the tail band at any
      position >= x and coming back: what any completion still adds from
      position x on when the heights at x-2, x-1 and x all lie in the band
      (a run, which must leave the band before it can end).

    Every cost of a path lies on one residue class mod `grain`, the same
    for all prefixes that meet in a state, so the search keeps a count of
    each grain-th cost only.  `horizon` is the hard horizon, `what` names
    the label in errors, and `build` makes a path from its height tuple.
    """

    start: int
    b: int
    lo: int
    hi: int
    budget: int
    horizon: int
    what: str
    step: Callable
    bounds: list
    leave: Callable
    grain: int = 1
    build: Callable = tuple


def search(model: Model) -> PathSet:
    """Every canonical path of unit steps that `model` describes: a
    `PathSet` that counts them by cost and lists them through `build`.

    The startpoint adds nothing, and tail vertices past the horizon add
    nothing, so a path's cost is complete once its junction vertex (the
    horizon) is costed against the tail.

    Everything ahead of a node depends only on its position and its state
    (prev, h, run), where run means that the last three heights all lie in
    the band, kept as one small int; so the search counts in one forward
    pass over states, layer by layer: the counting recursion of the 1D
    configuration sums (Andrews, Baxter and Forrester, J. Stat. Phys. 35,
    1984).  Each live state carries its least reach cost w and a list whose
    k-th entry counts the prefixes that reach it at cost w + grain * k, cut
    at its room: the budget less the larger of the bounds that apply to it.
    A step shifts the list by its vertex cost, and lists that meet in one
    state add; a junction state adds its list, shifted by the junction cost,
    into the result at stride grain.  Steps are pruned by the budget and both
    bounds.  A bound may never exceed what a completion really costs, or
    paths go missing; below that, the tighter it is, the fewer states carry
    counts of prefixes that cannot finish within the budget, so the models'
    bounds count every costed vertex a completion is forced to pass, not
    just one.  The hard horizon only guards against a search that never ends:
    a state still live past it raises, so a result is exactly what an
    unbounded search would return.  Nothing for listing is built until the
    path set is first iterated.
    """
    tables: dict = {}  # the steps of each state code, shared with the recording rerun
    counts = _forward(model, tables=tables)
    if not any(counts):
        return PathSet(counts)
    return PathSet(counts, partial(_forward, model, tables=tables), model.build)


def _moves(m: Model, code: int) -> tuple:
    """The junction form (None where the state cannot end a path) and the
    steps of the state with this code, read from the model's rules once
    per search: (nh, child code, child run, cost form, bound form of nh one
    position on).  A state's code is 4h + 2 (entered from above) + run; the
    start's is ~start, and its vertex costs nothing.
    """
    band = (m.b, m.b + 1)
    h, run = (~code, 0) if code < 0 else (code >> 2, code & 1)
    prev = None if code < 0 else h + 1 if code & 2 else h - 1
    # a canonical horizon: the junction vertex is costed against the tail
    # that follows it
    tail = (m.b + 1 if h == m.b else m.b) if h in band and not run else None
    edge, moves = None, []
    for nh in (h - 1, h + 1):
        if m.lo <= nh <= m.hi:
            form = FREE if code < 0 else m.step(prev, h, nh)
            if nh == tail:
                edge = form
            if form is not None:
                nrun = prev in band and h in band and nh in band
                f, k, d, c = m.bounds[nh]
                moves.append((nh, 4 * nh + 2 * (nh < h) + nrun, nrun, *form, f, k + 1, d, c))
    return edge, moves


def _forward(m: Model, layers=None, tables=None) -> list[int] | None:
    """The forward pass of `search`: the counts by cost.  Each state's
    moves are read from the model once, on its first visit, into `tables`
    (state code: its junction form and moves), and each step evaluates
    their forms inline; the recording rerun is handed the tables counting
    filled, so a search reads each state's moves once.  Given a list as
    `layers`, it records instead of counting, and returns None: it
    appends, per layer, each live state's least reach cost, junction cost
    (None off the horizons) and surviving steps (nh, vertex cost, child
    state).  A recording state carries an empty list, since pruning reads
    only the least reach cost, so it keeps exactly the states and steps
    counting keeps and adds nothing anywhere.
    """
    budget, grain = m.budget, m.grain
    record = layers is not None
    counts = [0] * (budget + 1)
    tables = {} if tables is None else tables
    reach = {~m.start: (0, [] if record else [1])}  # state code: (least reach cost, counts)
    x = 0
    while reach:
        if x > m.horizon:
            raise InvariantError("search", "enumeration did not stabilize: a step is still "
                                 f"live at horizon {m.horizon}", m.what)
        steps, nxt = {}, {}
        stay = budget - m.leave(x + 1)  # the room of a state in a run
        for code, (w, vec) in reach.items():
            edge, moves = tables.get(code) or tables.setdefault(code, _moves(m, code))
            junction = None
            if edge is not None and x % 2 == 0:
                junction = edge[0] * ((x + edge[1]) // edge[2]) + edge[3]
                s = w + junction
                if s <= budget:
                    n = min(len(vec), (budget - s) // grain + 1)
                    counts[s:s + grain * n:grain] = map(add, counts[s::grain], vec)
            out = []
            for nh, child, run, f, k, d, c, bf, bk, bd, bc in moves:
                e = w + f * ((x + k) // d) + c
                room = budget - bf * ((x + bk) // bd) - bc
                if run and stay < room:
                    room = stay
                if e > room:
                    continue
                if record:
                    out.append((nh, e - w, child))
                poly = vec[:(room - e) // grain + 1]
                e0, acc = nxt.setdefault(child, (e, poly))
                if acc is poly:  # the child's first list
                    continue
                # lists that meet are aligned by their offsets and added
                if e < e0:
                    nxt[child] = (e, poly)
                    e0, acc, e, poly = e, poly, e0, acc
                shift, off = divmod(e - e0, grain)
                if off:
                    raise InvariantError("search", f"costs {e0} and {e} meet in one state off "
                                         f"the grain {grain}", m.what)
                n = shift + len(poly)
                if n > len(acc) and poly:
                    acc += [0] * (n - len(acc))
                acc[shift:n] = map(add, acc[shift:n], poly)
            if record:
                steps[code] = (w, junction, out)
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
    (code, (_, node)), = below.items()
    return 0, ~code, 0, node  # the start's code is ~start
