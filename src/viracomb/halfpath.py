"""Half-lattice paths in doubled coordinates.

Positions and heights are both doubled so that every stored quantity is an
integer: entry H_i is twice the height at position i/2.  A path lives on
doubled heights 2..T (T = 2t), starts at A = 2a, and eventually oscillates
between B and B+1, a tail band inside the strip (B < T).  Valleys are only
allowed at even doubled heights; the startpoint's shape uses the virtual
convention H_{-1} = A + 1.  The labels (T, A, B) a path can carry are
exactly the Theorem-1 labels, `theorem1_domain`, and `rsos_label` names the
RSOS label the bijections pair each of them with.

The raw weight is half the sum of the positions of the straight vertices.
In doubled coordinates that sum is an integer number of quarter-units;
normalizing by the ground state (the straight staircase from A to B) gives
the integer weight used everywhere else.  Enumeration is one
`lattice.search` on one `lattice.Model`, whose step rule `_step` costs a
straight vertex its doubled position and forbids an odd valley.  All the
prefixes that meet in a search state lie on one residue class of quarter
units mod 4, so the search counts on a grain of 4, one list entry per
whole unit, while `counts` stays in quarter units.

A path is read once, when it is built: the constructor runs one pass,
`_read`, which checks the label, frames the heights, runs the vertex scan
`_scan_frame` on the frame (every other path rule, the doubled positions
scanned and the ground state subtracted) and refuses storage other than
the canonical one, and the path keeps the scan (the weight, the
straight-vertex count, the peaks and the valleys) under `_scan`.
`_scan_frame` gives the scan in the form the path keeps, so each bijection
stage, a path built bare on the frame of the heights the map made, keeps
the scan it ran there.  `HalfPath.of` canonicalizes its heights and reads
them on the frame it found, so a path built raw, as enumeration builds
them, is refused with `of`'s message wherever `of` would refuse its
heights, and unless it is stored canonically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from . import lattice
from .qseries import QSeries


class InvalidHalfPathError(lattice.InvalidPathError):
    """Raised for sequences violating the half-lattice constraints."""


@dataclass(frozen=True)
class HalfPath:
    """Canonical representation of a tail-oscillating half-lattice path,
    read when it is built: `_scan` keeps its weight, straight-vertex count,
    peaks and valleys, out of the fields, so `==`, `hash`, `repr` and
    `to_line` never see it.
    """

    t2: int
    a2: int
    b2: int
    doubled: tuple[int, ...]

    def __post_init__(self) -> None:
        vars(self)["_scan"] = _read(self)

    @staticmethod
    def of(t2: int, a2: int, b2: int, doubled) -> HalfPath:
        """A path from whole-number doubled heights whose tail may be
        partial or run long: canonicalized, then read on the frame
        canonicalizing found.
        """
        stored, seq = lattice.canonical(doubled, b2)
        path = lattice.bare(HalfPath, t2, a2, b2, stored)
        vars(path)["_scan"] = _read(path, seq=seq)
        return path

    @property
    def horizon(self) -> int:
        """The doubled canonical horizon 2*Lhat."""
        return len(self.doubled) - 1

    def height(self, i: int) -> int:
        """Doubled height at doubled position i >= -1 (tail continues)."""
        if i == -1:
            return self.a2 + 1
        if i < 0:
            raise IndexError("doubled positions start at -1")
        return lattice.tail_height(self.doubled, self.b2, i)

    def padded(self, upto: int) -> list[int]:
        """Doubled heights at positions 0..upto, continuing the tail."""
        return lattice.padded(self.doubled, self.b2, upto)

    def to_line(self) -> str:
        hs = ",".join(map(str, self.doubled))
        return f"half T={self.t2} A={self.a2} B={self.b2} H={hs}"

    @staticmethod
    def from_line(line: str) -> HalfPath:
        fields = lattice.parse_fields(line, "half", ("T", "A", "B", "H"))
        hs = [int(v) for v in fields["H"].split(",")]
        return HalfPath.of(int(fields["T"]), int(fields["A"]), int(fields["B"]), hs)


def theorem1_domain(t2: int, a2: int, b2: int) -> bool:
    """Whether (A, B) is an admissible doubled start/tail pair for T: the
    labels a half path can carry.
    """
    return t2 >= 4 and a2 % 2 == b2 % 2 == 0 and 2 <= a2 <= t2 and 2 <= b2 < t2


def rsos_label(t2: int, a2: int, b2: int) -> tuple[int, int, int, int]:
    """The RSOS label (p, p', a, b) the bijections pair with the Theorem-1
    half label (T, A, B): (T/2, T+1, A, B) for even T, of p' = 2p+1, and
    ((T+1)/2, T, B, A-1) for odd T, of p' = 2p-1.
    """
    if t2 % 2 == 0:
        return t2 // 2, t2 + 1, a2, b2
    return (t2 + 1) // 2, t2, b2, a2 - 1


def _ground_quarters(t2: int, a2: int, b2: int) -> int:
    """The ground state's raw weight in quarter-units, without building it.

    The staircase of L = |A - B| doubled steps is straight at positions
    1..L-1.  At the junction L an ascending one climbs on into the tail band
    and is straight too; a descending one turns there at a valley.
    """
    span = abs(a2 - b2)
    return span * (span - 1) // 2 + (span if b2 > a2 else 0)


def weight(path: HalfPath) -> int:
    """Raw weight minus the ground-state raw weight, in whole units, as the
    path's read keeps it.
    """
    return path._scan[0]


def _read(path: HalfPath, *,
          seq: list[int] | None = None) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """The one pass over a path's stored doubled heights that states every
    half-path rule, and the scan of its doubled positions 0..L (the weight,
    the number of straight vertices, the peaks and the valleys).  It checks
    the label (T >= 4, A and B even) and that there are heights, frames
    them once (`seq`, when `of` has framed them already), runs
    `_scan_frame` on the frame, and last refuses storage other than the
    canonical one `lattice.frame` finds.
    """
    t2, a2, b2, hs = path.t2, path.a2, path.b2, path.doubled
    if t2 < 4:
        raise InvalidHalfPathError(f"need T = 2t >= 4, got {t2}")
    if a2 % 2 or b2 % 2:
        raise InvalidHalfPathError(
            f"start A={a2} and tail B={b2} must be even (integer heights)")
    if not hs:
        raise InvalidHalfPathError("height sequence is empty")
    if seq is None:
        seq = lattice.frame(hs, b2)[1]
    scan = _scan_frame(t2, a2, b2, seq)
    if len(seq) != len(hs) + 1:
        raise lattice.InvalidPathError(f"path not stored canonically: {path.to_line()}")
    return scan


def _scan_frame(t2: int, a2: int, b2: int,
                seq: list[int]) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """The vertex scan of a frame, the doubled heights at 0..L+1 of a list
    that `lattice.frame` framed, position 0 read against H(-1) = A + 1: the
    path's read runs it, and so does each bijection stage on the list it
    builds.  It checks the start at A and the tail band {B, B+1} inside the
    strip, 2 <= B < T, then each height up to the horizon L in order, its
    range before its step.  A valley at an odd doubled height is refused
    only once the whole list has passed, so a height out of range or a bad
    step anywhere wins over it, then heights that do not end in the band.
    A label that passes is a Theorem-1 label, so the scan subtracts the
    ground state and gives the whole-unit weight.  The heights past L are
    the band run `frame` has found.
    """
    if seq[0] != a2:
        raise InvalidHalfPathError(f"path must start at A={a2}, got {seq[0]}")
    if not 2 <= b2 < t2:  # the tail band {B, B+1} lies in the strip
        raise InvalidHalfPathError(f"tail height B={b2} out of range 2..{t2 - 1}")
    quarters = 0
    peaks = []
    valleys = []
    odd = None
    for i, before, h, after in zip(range(len(seq) - 1), [a2 + 1] + seq, seq, seq[1:]):
        if not 2 <= h <= t2:
            raise InvalidHalfPathError(
                f"height {h} at doubled position {i} out of range 2..{t2}")
        if h - before not in (1, -1):
            raise InvalidHalfPathError(f"step at doubled position {i} is not a half-unit step")
        if before != after:
            quarters += i
        elif h > after:
            peaks.append(i)
        else:
            valleys.append(i)
            if h % 2 and odd is None:
                odd = i
    if odd is not None:
        raise InvalidHalfPathError(
            f"valley at non-integer height {seq[odd]}/2 (doubled position {odd})")
    if seq[-2] not in (b2, b2 + 1):  # the height at L
        raise InvalidHalfPathError(f"stored sequence must end inside the tail band, got {seq[-2]}")
    straights = len(seq) - 1 - len(peaks) - len(valleys)  # the vertices 0..L that do not turn
    return (_whole_units(quarters - _ground_quarters(t2, a2, b2), t2, a2, b2), straights,
            tuple(peaks), tuple(valleys))


def _whole_units(diff: int, t2: int, a2: int, b2: int) -> int:
    """A quarter-unit difference from the ground state of label (T, A, B),
    in whole units.
    """
    units, rest = divmod(diff, 4)
    if rest or units < 0:
        raise lattice.InvariantError("weight", f"quarter-unit weight difference {diff} is not "
                                     "a nonnegative multiple of 4", f"(T,A,B)=({t2},{a2},{b2})")
    return units


def enumerate_paths(t2: int, a2: int, b2: int, max_weight: int) -> lattice.PathSet:
    """All paths of weight <= max_weight, listed in order of their doubled
    heights; `counts` are by raw weight in quarter-units.

    One `lattice.search` at grain 4 (a merge off it raises), whose bounds
    count every straight vertex a completion is forced to pass, each
    costing its doubled position:

    * `bounds[h]`, m * i + m(m+1)/2 for the m heights between h and the
      band: the first step after i from each of them towards the band is
      straight and entered from outside the band: B+1..h-1 above it,
      h+1..B below it, at distinct positions after i.
    * `leave(i)`: a run leaves the band at some j >= i, on a straight
      vertex, and later enters it for good on another straight vertex, at
      j + 2 or later, so the two cost at least 2i + 2.
    """
    if not theorem1_domain(t2, a2, b2):
        raise InvalidHalfPathError(
            f"(A,B)=({a2},{b2}) out of the admissible range for T={t2}")
    gs_q = _ground_quarters(t2, a2, b2)
    if max_weight < 0:
        return lattice.PathSet([])

    # m forced straight vertices, at distinct positions after i: on B+1..h-1
    # above the band, each entered from above and left downwards, or on
    # h+1..B below it, each entered from below and left upwards; entered
    # from outside the band, each comes before the horizon
    forced = (h - b2 - 1 if h > b2 else b2 - h for h in range(t2 + 1))
    bounds = [(m, 0, 1, m * (m + 1) // 2) for m in forced]
    return lattice.search(lattice.Model(
        a2, b2, 2, t2, 4 * max_weight + gs_q, 4 * max_weight + 2 * abs(a2 - b2) + 8,
        f"(T,A,B)=({t2},{a2},{b2})", _step, bounds,
        # the exit vertex j >= i runs straight out of the band from inside
        # it; the final entry vertex, at j + 2 or later, runs straight on
        # into the band, where the path then stays
        lambda i: 2 * i + 2, 4, partial(HalfPath, t2, a2, b2)))


def _step(prev: int, h: int, nxt: int) -> tuple[int, ...] | None:
    """The cost of vertex i at h, entered from prev and left to nxt, as the
    search's affine form in i: a straight vertex adds its doubled position
    in quarter-units, a turn nothing, and a valley at an odd doubled height
    is forbidden.
    """
    if prev == nxt == h + 1 and h % 2 == 1:
        return None
    return (1, 0, 1, 0) if nxt != prev else lattice.FREE


def generating_function(t2: int, a2: int, b2: int, order: int) -> QSeries:
    """Every fourth raw-weight count from the ground state on: no path listed."""
    counts = enumerate_paths(t2, a2, b2, order).counts
    gs_q = _ground_quarters(t2, a2, b2)
    for q in (q for q, n in enumerate(counts) if n):
        _whole_units(q - gs_q, t2, a2, b2)  # every raw weight lies on the ground state's grid
    return QSeries(order, tuple(counts[gs_q::4]))
