"""The core both path models share: walks in a strip that end oscillating
in a tail band {b, b+1}.

RSOS paths and half-lattice paths differ only in their labels, step rules,
vertex costs and search bounds.  Everything else lives here: parsing the
one-line path formats, the canonical horizon of a height list (`frame`,
the one statement of canonical storage, which returns a list that is
already its own frame as it is), tail continuation (`padded`, the one tail
rule), the peaks of raw heights (`turns`), how a path is built and read
(`Path`), and one bounded path search.  Each model states a search as one
frozen record per label, `Model`: its costs and bounds are affine forms in
the position, data the search reads once per state and evaluates inline,
so counting calls no model function per step.  Counting is the search's one
forward pass; listing walks back over the step tables it filled.

A path is read when it is built.  `Path` is the base of both models'
frozen dataclasses, whose fields, the label's and then the stored heights,
are each class's one statement of its layout.  Its `_read` is the one
read, of a label and stored heights given as data: the class's label
checks, the refusal of no heights in the class's error type, one `frame`,
the class's vertex scan `_scan_frame` on that frame (every other path
rule, and the facts the path keeps), and last the refusal of storage other
than the canonical one.  The path keeps the scan under `_scan`, out of the
fields, so `==`, `hash`, `repr` and `to_line` never see it.  A path is
built in one of three ways:

* raw, by its constructor (listing and `dataclasses.replace` too): the
  read runs on the fields as given, taken by the class's layout;
* by `of`, from whole-number heights whose tail may be partial or run
  long: they are framed once, the path is built on that frame and read on
  it, so a path built raw is refused with `of`'s message wherever `of`
  would refuse its heights, and unless it is stored canonically.  A line
  is parsed from the class's `(kind, keys)` and read the same way;
* by a bijection stage, on a frame it has already scanned: the path keeps
  that scan and is not read again.  A stage whose heights break a rule
  builds its path unread, for the line of its error.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from operator import add, attrgetter


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


def frame(hs: Sequence[int], b: int) -> list[int]:
    """The heights at 0..L+1 of a height list, the tail oscillation
    continued, L its canonical horizon (the frame's length less 2): L is the
    first even position from which every height lies in the tail band
    {b, b+1}.  Only the final band run is read here, back from the end, and
    only where it alternates, so every height past L is a unit step in the
    band, which the path's reader has checked lies inside the strip; the
    reader checks the heights up to L.  A list that does not end in the band
    is refused after its other checks: it is framed as it stands, its last
    height repeated.  A list that is its own frame is returned as it is; no
    input is edited, and any other is framed into a new list.
    """
    start = len(hs) - 1
    if hs[start] not in (b, b + 1):
        return [*hs, hs[start]]
    # from a band height, the run goes back while the height before it is
    # the band's other height, the one it sums with to 2b + 1
    while start and hs[start - 1] + hs[start] == 2 * b + 1:
        start -= 1
    upto = start + start % 2 + 1
    return hs if upto == len(hs) - 1 and isinstance(hs, list) else padded(hs, b, upto)


def padded(stored: Sequence[int], b: int, upto: int) -> list[int]:
    """Heights at positions 0..upto, continuing the tail oscillation: the
    one statement of the tail past the horizon.
    """
    out = list(stored) if upto + 1 >= len(stored) else list(stored[: upto + 1])
    beyond = upto - (len(stored) - 1)  # tail heights past the horizon
    if beyond > 0:
        last = stored[-1]
        flip = b + 1 if last == b else b
        out += ([flip, last] * ((beyond + 1) // 2))[:beyond]
    return out


def turns(hs: Sequence[int], hi: int) -> list[int]:
    """The peaks at positions 1 <= i < hi of a unit-step sequence: with unit
    steps, i turns exactly when hs[i-1] == hs[i+1], and it is a peak when
    hs[i] lies above them.
    """
    return [i for i, before, h, after in zip(range(1, hi), hs, hs[1:], hs[2:])
            if before == after < h]


class Path:
    """The base of the two frozen path dataclasses, `rsos.RsosPath` and
    `halfpath.HalfPath`.  A class's fields are its layout, stated once: the
    label's, the tail height b last, then the stored heights; the base reads
    them into `_fields`, their names, and `_layout`, their getter.  Each
    class states what else is its own: `kind` and `keys`, its line's kind
    and field keys in field order; `error`, its error type; `_check_label`,
    its label checks, and `_scan_frame`, the vertex scan of a frame, each
    taking the label as one tuple; its `horizon` and `padded`; and
    `to_line`.
    """

    def __init_subclass__(cls) -> None:
        # the class body's annotations are its dataclass fields, in order
        cls._fields = tuple(cls.__annotations__)
        cls._layout = attrgetter(*cls._fields)

    def __post_init__(self) -> None:
        *label, hs = self._layout(self)
        self._read(label, hs)

    def _read(self, label: Sequence[int], hs: Sequence[int],
              seq: list[int] | None = None) -> None:
        """The one read of a path of this label stored as hs, on seq, the
        frame of hs when it has been framed already; the path keeps the scan.
        """
        self._check_label(label)
        if not hs:
            raise self.error("height sequence is empty")
        if seq is None:
            seq = frame(hs, label[-1])
        vars(self)["_scan"] = self._scan_frame(label, seq)
        if len(seq) != len(hs) + 1:
            raise InvalidPathError(f"path not stored canonically: {self.to_line()}")

    @classmethod
    def _of(cls, label: Sequence[int], hs: list[int]):
        """The path of a label on whole-number heights, framed once; no
        heights frame to nothing, which the read refuses after the label
        checks.
        """
        seq = frame(hs, label[-1]) if hs else []
        stored = tuple(seq[:-1])
        path = cls._framed(label, stored)
        path._read(label, stored, seq)
        return path

    @classmethod
    def _framed(cls, label: Sequence[int], stored: tuple[int, ...], scan: tuple | None = None):
        """The path of a label stored as `stored`, made without its
        constructor and so not read: it keeps `scan`, the scan of its frame.
        """
        path = object.__new__(cls)
        fields = vars(path)
        fields.update(zip(cls._fields, label))
        fields[cls._fields[-1]], fields["_scan"] = stored, scan
        return path

    @classmethod
    def _parse(cls, line: str):
        """The path of a `kind` line, its fields whole numbers by `int`."""
        fields = parse_fields(line, cls.kind, cls.keys)
        hs = list(map(int, fields[cls.keys[-1]].split(",")))
        return cls._of([int(fields[key]) for key in cls.keys[:-1]], hs)


class PathSet:
    """The paths one `search` found.  `counts[k]` is the number of paths of
    cost k <= budget, known before any path is listed, and `len()` is their
    sum.  Iteration lists the paths in height order, each built from its
    height tuple by the model's `build`, by a pre-order walk, lower step
    first, that descends only where a completion fits the budget.

    Counting builds nothing the walk needs.  The first iteration builds it,
    with no second search: `_walk_root` reads the step tables counting
    filled, position by position back from the search's depth, and gives
    each state its least completion cost, all the walk needs to prune.
    """

    def __init__(self, counts: list[int], model: Model | None = None,
                 tables: dict | None = None, depth: int = 0) -> None:
        self.counts = counts  # one entry per cost 0..budget
        self._model, self._tables, self._depth = model, tables, depth
        self._root = None  # the walk's first entry, built on first iteration

    def __len__(self) -> int:
        return sum(self.counts)

    def __iter__(self):
        if self._root is None:
            if not any(self.counts):
                return
            self._root = _walk_root(self._model, self._tables, self._depth)
        budget, build, hs = len(self.counts) - 1, self._model.build, []
        todo = [self._root]
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
    unbounded search would return.  Counting is the one forward pass: the
    path set keeps its step tables and depth, and nothing for listing is
    built until it is first iterated.
    """
    tables: dict = {}  # the steps of each state code, read again by listing
    counts, depth = _forward(model, tables)
    return PathSet(counts, model, tables, depth)


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


def _forward(m: Model, tables: dict) -> tuple[list[int], int]:
    """The forward pass of `search`: the counts by cost, and the depth, the
    first position at which no state is live.  Each state's moves are read
    from the model once, on its first visit, into `tables` (state code: its
    junction form and moves), and each step evaluates their forms inline;
    listing reads the same tables, so a search reads each state's moves once.
    """
    budget, grain = m.budget, m.grain
    counts = [0] * (budget + 1)
    reach = {~m.start: (0, [1])}  # state code: (least reach cost, counts)
    x = 0
    while reach:
        if x > m.horizon:
            raise InvariantError("search", "enumeration did not stabilize: a step is still "
                                 f"live at horizon {m.horizon}", m.what)
        nxt = {}
        stay = budget - m.leave(x + 1)  # the room of a state in a run
        for code, (w, vec) in reach.items():
            edge, moves = tables.get(code) or tables.setdefault(code, _moves(m, code))
            if edge is not None and x % 2 == 0:
                s = w + edge[0] * ((x + edge[1]) // edge[2]) + edge[3]
                if s <= budget:
                    n = min(len(vec), (budget - s) // grain + 1)
                    counts[s:s + grain * n:grain] = map(add, counts[s::grain], vec)
            for nh, child, run, f, k, d, c, bf, bk, bd, bc in moves:
                e = w + f * ((x + k) // d) + c
                room = budget - bf * ((x + bk) // bd) - bc
                if run and stay < room:
                    room = stay
                if e > room:
                    continue
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
        reach = nxt
        x += 1
    return counts, x


def _walk_root(m: Model, tables: dict, depth: int) -> tuple:
    """The listing walk's first entry, from the step tables counting filled.
    One backward pass over positions depth-1 down to 0, over the codes whose
    height has the parity of start + x, gives each state its least
    completion cost and its walk node, (junction cost or None, [(nh, c,
    c + child's least cost, child node)], higher step first, so the walk
    pops the lower one first).  Steps and states with no completion within
    the budget are dropped, and a state whose height bound at its position
    exceeds the budget is not looked at.

    This is exact.  A state's least completion cost depends only on its
    position and code; every state on a path within the budget was live in
    counting, since no bound exceeds a real cost, so its code is in the
    tables and its position below the depth; and so a code not in the
    tables, or past the last position its bound leaves room at, has no
    completion within the budget.
    """
    budget, sides = m.budget, ([], [])
    for code, (edge, moves) in tables.items():
        h = ~code if code < 0 else code >> 2
        f, k, d, c = m.bounds[h]  # past `last`, the bound of h leaves no room
        last = depth if f == 0 else d * ((budget - c) // f + 1) - 1 - k
        sides[(h - m.start) % 2].append((code, last, edge, moves[::-1]))
    below: dict = {}
    for x in range(depth - 1, -1, -1):
        here = {}
        for code, last, edge, moves in sides[x % 2]:
            if x > last:
                continue
            junction = None
            if edge is not None and x % 2 == 0:
                junction = edge[0] * ((x + edge[1]) // edge[2]) + edge[3]
                if junction > budget:
                    junction = None
            least = budget + 1 if junction is None else junction
            kids = []
            for nh, child, _, f, k, d, c, _, _, _, _ in moves:
                if child in below:
                    need, node = below[child]
                    c = f * ((x + k) // d) + c
                    need += c
                    if need <= budget:
                        kids.append((nh, c, need, node))
                        if need < least:
                            least = need
            if least <= budget:
                here[code] = (least, (junction, kids))
        below = here
    return 0, m.start, 0, below[~m.start][1]
