"""RSOS paths: unit-step height sequences with an oscillating tail.

A path lives on heights 1..p'-1, starts at a, and eventually oscillates
between b and b+1 forever.  Only the prefix through the canonical horizon
L(h) is stored: the smallest even L from which every later height lies in
{b, b+1}.  Horizontal bands between consecutive heights are dark or light
according to the floor function y = floor(r p'/p); scoring vertices (and
hence weights) are defined relative to that shading.  A path is read once,
when it is built: the constructor runs one pass, `_read`, which checks
every path rule, refuses storage other than the canonical one and scans
the vertices, and the path keeps the scan (the weight, the scoring
positions and the scoring-peak count) under `_scan`, however many readers
ask.  `RsosPath.of` only canonicalizes its heights first, so a path built
raw, as enumeration builds them, is refused with `of`'s message wherever
`of` would refuse its heights, and unless it is stored canonically.

Weights are finite only when the tail sits in a dark band, i.e. when b is
one of the dark floors.  Enumeration of all paths up to a weight bound is
one `lattice.search`: a forward pass over search states with exact
lower-bound pruning that counts the paths by weight, and raises if a state
is still live past the hard horizon.  Listing the paths reruns that pass to
build a walk that visits only prefixes of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from math import gcd

from . import lattice
from .lattice import InvalidPathError
from .qseries import QSeries


class InfiniteWeightError(ValueError):
    """Raised when the tail band is light, making the weight diverge."""


@lru_cache(maxsize=None)
def dark_floors(p: int, p_prime: int) -> frozenset[int]:
    """Floors y of the dark bands: y = floor(r p'/p) for 1 <= r < p."""
    if not 1 < p < p_prime or gcd(p, p_prime) != 1:
        raise ValueError(f"need coprime 1 < p < p', got ({p}, {p_prime})")
    return frozenset((r * p_prime) // p for r in range(1, p))


def tail_band_index(p: int, p_prime: int, b: int) -> int | None:
    """The r with floor(r p'/p) = b, or None when the b-band is light."""
    for r in range(1, p):
        if (r * p_prime) // p == b:
            return r
    return None


@dataclass(frozen=True)
class RsosPath:
    """Canonical representation of a b-tailed RSOS path, read when it is
    built: `_scan` keeps its weight, scoring positions and scoring-peak
    count, out of the fields, so `==`, `hash`, `repr` and `to_line` never
    see it.
    """

    p: int
    p_prime: int
    a: int
    b: int
    heights: tuple[int, ...]

    def __post_init__(self) -> None:
        vars(self)["_scan"] = _read(self)

    @staticmethod
    def of(p: int, p_prime: int, a: int, b: int, heights) -> RsosPath:
        """A path from whole-number heights whose tail may be partial or run
        long: canonicalized, then built, and so read.
        """
        return RsosPath(p, p_prime, a, b, lattice.canonical(heights, b))

    @property
    def horizon(self) -> int:
        """Index of the last stored height (the canonical L)."""
        return len(self.heights) - 1

    def height(self, x: int) -> int:
        """Height at any position, continuing the tail oscillation."""
        if x < 0:
            raise IndexError("positions are nonnegative")
        return lattice.tail_height(self.heights, self.b, x)

    def padded(self, upto: int) -> list[int]:
        """Heights at positions 0..upto, continuing the tail oscillation."""
        return lattice.padded(self.heights, self.b, upto)

    def to_line(self) -> str:
        hs = ",".join(map(str, self.heights))
        return f"rsos p={self.p} pp={self.p_prime} a={self.a} b={self.b} h={hs}"

    @staticmethod
    def from_line(line: str) -> RsosPath:
        fields = lattice.parse_fields(line, "rsos", ("p", "pp", "a", "b", "h"))
        hs = [int(v) for v in fields["h"].split(",")]
        return RsosPath.of(
            int(fields["p"]), int(fields["pp"]), int(fields["a"]), int(fields["b"]), hs
        )


def _scores(dark: frozenset[int], prev: int, h: int, nxt: int) -> bool:
    """The scoring rule: a straight vertex scores when the band just right of
    it is dark, a peak or valley when that band is light.
    """
    return (nxt != prev) == ((h if nxt > h else nxt) in dark)


def weight(path: RsosPath) -> int:
    """Sum of u over up-scoring and v over down-scoring vertices."""
    _require_finite(path)
    return path._scan[0]


def _read(path: RsosPath) -> tuple[int, tuple[int, ...], int]:
    """The one pass over a path's stored heights that states every RSOS
    path rule, and the scan of its vertices 1..L (the weight, the scoring
    positions, the number of scoring peaks).  It checks the label (coprime
    1 < p < p'), the start at a and the tail band {b, b+1} inside the
    strip, then each height up to the horizon in order, its range before
    its step, then that the storage ends in the band, and last that it is
    the canonical storage `lattice.frame` finds: it runs exactly through
    the horizon.  The heights past the horizon are the band run `frame`
    has found.

    Vertex x is labelled u = (x - h + a)/2 after an up step and v =
    (x + h - a)/2 after a down step; a path of unit steps from a gives
    every vertex labels u, v >= 0 with u + v = x.
    """
    p, p_prime, a, b, hs = path.p, path.p_prime, path.a, path.b, path.heights
    if not 1 < p < p_prime or gcd(p, p_prime) != 1:
        raise InvalidPathError(f"need coprime 1 < p < p', got ({p}, {p_prime})")
    if not hs:
        raise InvalidPathError("height sequence is empty")
    if hs[0] != a:
        raise InvalidPathError(f"path must start at a={a}, got {hs[0]}")
    if not 1 <= b <= p_prime - 2:  # the tail band {b, b+1} lies in the strip
        raise InvalidPathError(f"tail height b={b} out of range")
    dark = dark_floors(p, p_prime)
    horizon, seq = lattice.frame(hs, b)
    if not 0 < seq[0] < p_prime:
        raise InvalidPathError(f"height {seq[0]} at position 0 out of range")
    total = peaks = 0
    scoring = []
    for x, prev, h, nxt in zip(range(1, horizon + 1), seq, seq[1:], seq[2:]):
        if not 0 < h < p_prime:
            raise InvalidPathError(f"height {h} at position {x} out of range")
        if h - prev not in (1, -1):
            raise InvalidPathError(f"step at position {x} is not a unit step")
        if (nxt != prev) == ((h if nxt > h else nxt) in dark):  # `_scores`, inlined
            scoring.append(x)
            if prev < h:
                total += (x - h + a) // 2
                if nxt == prev:
                    peaks += 1
            else:
                total += (x + h - a) // 2
    if hs[-1] not in (b, b + 1):
        raise InvalidPathError(f"stored sequence must end inside the tail band, got {hs[-1]}")
    if horizon != len(hs) - 1:
        raise InvalidPathError(f"path not stored canonically: {path.to_line()}")
    return total, tuple(scoring), peaks


def _require_finite(path: RsosPath) -> None:
    if tail_band_index(path.p, path.p_prime, path.b) is None:
        raise InfiniteWeightError(
            f"tail band with floor {path.b} is light for ({path.p},{path.p_prime}); "
            "the weight diverges"
        )


def enumerate_paths(
    p: int, p_prime: int, a: int, b: int, max_weight: int
) -> lattice.PathSet:
    """All paths of weight <= max_weight, counted by weight (`counts`) and
    listed in order of their height tuples.

    One `lattice.search` over states with exact lower-bound pruning counts
    the paths in one forward pass.  Both bounds count every scoring vertex
    a completion is forced to pass, at its least label:

    * `future(x, h)`: one vertex per dark floor y between h and the band,
      b <= y <= h-2 above it or h < y <= b below it.  The first step after
      x across [y, y+1] towards the band is straight over that dark band,
      so it scores, and is entered from outside the tail band, so it comes
      before the horizon.
    * `leave(x)`: a run leaves the band at some j >= x and later enters it
      for good.  The first step back across the tail band is straight over
      it, at j + 2 or later.  Before it, the climb (or descent) from j to
      its first turn scores at least once: the band just inside the turn
      scores on the turn when light, on the straight vertex before it when
      dark.

    The result is complete: the search raises if any state is still live
    past its hard horizon, 2 * max_weight + |a - b| + 2p'.  Iterating the
    result builds the walk; it visits only prefixes of the listed paths, so
    listing costs follow the output.
    """
    dark = dark_floors(p, p_prime)  # refuses a label that is not a model first
    if not 1 <= a <= p_prime - 1:
        raise InvalidPathError(f"start height a={a} out of range")
    if b not in dark:
        raise InvalidPathError(
            f"b={b} is not a dark-band floor for ({p},{p_prime}); weights diverge"
        )
    if max_weight < 0:
        return lattice.PathSet([])
    top = p_prime - 1

    def cost(x: int, prev: int, h: int, nxt: int) -> int:
        if not _scores(dark, prev, h, nxt):
            return 0
        return (x - h + a) // 2 if prev < h else (x + h - a) // 2

    # forced[h]: the dark floors a completion from height h must still
    # cross towards the band.  Above it (h > b+1) they are b <= y <= h-2:
    # before its first step from y+1 down to y the path stays at y+1 or
    # higher, so that step is entered from y+2, straight over the dark band
    # [y, y+1], and it scores; its predecessor lies outside the tail band,
    # so it comes at or before the horizon and is costed.  Below it (h < b)
    # they are h+1 <= y <= b, each crossed first by a straight step up from
    # y entered from y-1.
    forced = [sum(b <= y <= h - 2 or h < y <= b for y in dark) for h in range(top + 1)]

    def future(x: int, h: int) -> int:
        # a forced vertex x' > x at height h' lies at least |h - h'| steps
        # on, so its label, v = (x' + h' - a)/2 above the band or
        # u = (x' - h' + a)/2 below it, is at least (x + h - a)/2 or
        # (x - h + a)/2; forced[h] is 0 inside the band
        if h > b:
            return forced[h] * ((x + h - a + 1) // 2)
        return forced[h] * ((x + a - h + 1) // 2)

    # a run ends only by leaving the band at some vertex j >= x and
    # entering it for good later.  Out above, the first step from b+1 down
    # to b after the exit is entered from b+2, at j + 2 or later: straight
    # over the dark tail band, so v >= (x + b + 3 - a)/2.  Before it, the
    # climb from the exit vertex (at b+1, entered from b) up to its first
    # peak scores at least once: the band under the peak is crossed by the
    # straight vertex below the peak, which scores if it is dark, and by
    # the peak, which scores if it is light.  Every vertex of that climb is
    # entered by an up step on one diagonal, so u = (j - b - 1 + a)/2 >=
    # (x - b - 1 + a)/2.  Out below is the mirror image.  All of them lie
    # before the horizon, since the path has not yet entered the band for
    # good.
    def leave(x: int) -> int:
        opts = []
        if b + 2 <= top:
            opts.append((x + b + 4 - a) // 2 + (x - b + a) // 2)
        if b >= 2:
            opts.append((x + a - b + 3) // 2 + (x + b - a + 1) // 2)
        return min(opts) if opts else max_weight + 1

    horizon = 2 * max_weight + abs(a - b) + 2 * p_prime
    return lattice.search(a, b, 1, top, max_weight, horizon, cost, future, leave,
                          f"({p},{p_prime},{a},{b})", partial(RsosPath, p, p_prime, a, b))


def generating_function(p: int, p_prime: int, a: int, b: int, order: int) -> QSeries:
    """Weight generating function of the path set, counted with no path listed."""
    return QSeries(order, tuple(enumerate_paths(p, p_prime, a, b, order).counts))
