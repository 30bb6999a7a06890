"""RSOS paths: unit-step height sequences with an oscillating tail.

A path lives on heights 1..p'-1, starts at a, and eventually oscillates
between b and b+1 forever.  Only the prefix through the canonical horizon
L(h) is stored: the smallest even L from which every later height lies in
{b, b+1}.  Horizontal bands between consecutive heights are dark or light
according to the floor function y = floor(r p'/p); scoring vertices (and
hence weights) are defined relative to that shading.  A path is built and
read as `lattice.Path` states; the scan it keeps holds the weight, the
scoring positions and the scoring-peak count.

Weights are finite only when the tail sits in a dark band, i.e. when b is
one of the dark floors, and `dark_floors` states the label rule, coprime
1 < p < p', for enumeration and the read alike.  Enumeration of all paths
up to a weight bound is one `lattice.search` on one `lattice.Model`: the
scoring rule `_step` gives each vertex its label as an affine form in the
position, and each height's bound is another, so the search's forward pass
over states, with exact lower-bound pruning, counts the paths by weight
without calling back per step, and raises if a state is still live past
the hard horizon.  Listing the paths builds a walk that visits only
prefixes of them from the step tables that pass filled, with no second
search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from math import gcd
from operator import index

from . import lattice
from .lattice import InvalidPathError
from .qseries import QSeries


class InfiniteWeightError(ValueError):
    """Raised when the tail band is light, making the weight diverge."""


@lru_cache(maxsize=None)
def dark_floors(p: int, p_prime: int) -> frozenset[int]:
    """Floors y of the dark bands: y = floor(r p'/p) for 1 <= r < p.  The
    one statement of the label rule: a pair that is not a model, coprime
    1 < p < p', is refused here, for enumeration and a path's read alike.
    """
    if not 1 < p < p_prime or gcd(p, p_prime) != 1:
        raise InvalidPathError(f"need coprime 1 < p < p', got ({p}, {p_prime})")
    return frozenset((r * p_prime) // p for r in range(1, p))


def tail_band_index(p: int, p_prime: int, b: int) -> int | None:
    """The r with floor(r p'/p) = b, or None when the b-band is light."""
    for r in range(1, p):
        if (r * p_prime) // p == b:
            return r
    return None


@dataclass(frozen=True)
class RsosPath(lattice.Path):
    """Canonical representation of a b-tailed RSOS path, read when it is
    built: `_scan` keeps its weight, scoring positions and scoring-peak
    count.
    """

    p: int
    p_prime: int
    a: int
    b: int
    heights: tuple[int, ...]

    kind, keys, error = "rsos", ("p", "pp", "a", "b", "h"), InvalidPathError

    @staticmethod
    def of(p: int, p_prime: int, a: int, b: int, heights) -> RsosPath:
        """A path from whole-number heights (`operator.index`, so a float or
        a string raises `TypeError`) whose tail may be partial or run long.
        """
        return RsosPath._of((p, p_prime, a, b), list(map(index, heights)))

    @property
    def horizon(self) -> int:
        """Index of the last stored height (the canonical L)."""
        return len(self.heights) - 1

    def padded(self, upto: int) -> list[int]:
        """Heights at positions 0..upto, continuing the tail oscillation."""
        return lattice.padded(self.heights, self.b, upto)

    def to_line(self) -> str:
        hs = ",".join(map(str, self.heights))
        return f"rsos p={self.p} pp={self.p_prime} a={self.a} b={self.b} h={hs}"

    @staticmethod
    def from_line(line: str) -> RsosPath:
        return RsosPath._parse(line)

    @staticmethod
    def _check_label(label: tuple[int, int, int, int]) -> None:
        dark_floors(label[0], label[1])  # refuses a label that is not a model first

    @staticmethod
    def _scan_frame(label: tuple[int, int, int, int],
                    seq: list[int]) -> tuple[int, tuple[int, ...], int]:
        """The vertex scan of a frame, the heights at 0..L+1 of a list that
        `lattice.frame` framed: the path's read runs it, and so does each
        bijection stage on the list it builds.  It checks the start at a and
        the tail band {b, b+1} inside the strip, then each height up to the
        horizon L in order, its range before its step, and last that the
        heights end in the band; the heights past L are the band run `frame`
        has found.  It gives the weight, the scoring positions and the number
        of scoring peaks.

        Vertex x is labelled u = (x - h + a)/2 after an up step and v =
        (x + h - a)/2 after a down step; a path of unit steps from a gives
        every vertex labels u, v >= 0 with u + v = x.
        """
        p, p_prime, a, b = label
        dark = dark_floors(p, p_prime)
        if seq[0] != a:
            raise InvalidPathError(f"path must start at a={a}, got {seq[0]}")
        if not 1 <= b <= p_prime - 2:  # the tail band {b, b+1} lies in the strip
            raise InvalidPathError(f"tail height b={b} out of range")
        if not 0 < seq[0] < p_prime:
            raise InvalidPathError(f"height {seq[0]} at position 0 out of range")
        total = peaks = 0
        scoring = []
        for x, prev, h, nxt in zip(range(1, len(seq) - 1), seq, seq[1:], seq[2:]):
            if not 0 < h < p_prime:
                raise InvalidPathError(f"height {h} at position {x} out of range")
            if h - prev not in (1, -1):
                raise InvalidPathError(f"step at position {x} is not a unit step")
            if (nxt != prev) == ((h if nxt > h else nxt) in dark):  # `_step`'s scoring rule
                scoring.append(x)
                if prev < h:
                    total += (x - h + a) // 2
                    if nxt == prev:
                        peaks += 1
                else:
                    total += (x + h - a) // 2
        if seq[-2] not in (b, b + 1):  # the height at L
            raise InvalidPathError(f"stored sequence must end inside the tail band, got {seq[-2]}")
        return total, tuple(scoring), peaks


def _step(dark: frozenset[int], a: int, prev: int, h: int, nxt: int) -> tuple[int, ...]:
    """The cost of vertex x at h, entered from prev and left to nxt, as the
    search's affine form in x: its label, (x - h + a)/2 after an up step
    and (x + h - a)/2 after a down step, when it scores, else nothing.  The
    scoring rule: a straight vertex scores when the band just right of it is
    dark, a peak or valley when that band is light.
    """
    if (nxt != prev) != ((h if nxt > h else nxt) in dark):
        return lattice.FREE
    return (1, a - h, 2, 0) if prev < h else (1, h - a, 2, 0)


def weight(path: RsosPath) -> int:
    """Sum of u over up-scoring and v over down-scoring vertices."""
    _require_finite(path)
    return path._scan[0]


def _require_finite(path: RsosPath) -> None:
    if path.b not in dark_floors(path.p, path.p_prime):
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
    the paths in one forward pass, on a record whose step rule is `_step`.
    Both bounds count every scoring vertex a completion is forced to pass,
    at its least label:

    * `bounds[h]`, forced[h] * ((x + k) // 2) with k = h - a + 1 above the
      band and a - h + 1 below it: one vertex per dark floor y between h
      and the band,
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
    # forced[h]: the dark floors a completion from height h must still
    # cross towards the band.  Above it (h > b+1) they are b <= y <= h-2:
    # before its first step from y+1 down to y the path stays at y+1 or
    # higher, so that step is entered from y+2, straight over the dark band
    # [y, y+1], and it scores; its predecessor lies outside the tail band,
    # so it comes at or before the horizon and is costed.  Below it (h < b)
    # they are h+1 <= y <= b, each crossed first by a straight step up from
    # y entered from y-1.
    forced = [sum(b <= y <= h - 2 or h < y <= b for y in dark) for h in range(top + 1)]
    # a forced vertex x' > x at height h' lies at least |h - h'| steps on,
    # so its label, v = (x' + h' - a)/2 above the band or u = (x' - h' +
    # a)/2 below it, is at least (x + h - a)/2 or (x - h + a)/2; forced[h]
    # is 0 inside the band
    bounds = [(n, h - a + 1 if h > b else a - h + 1, 2, 0) for h, n in enumerate(forced)]

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
        opts = [(x + b + 4 - a) // 2 + (x - b + a) // 2] if b + 2 <= top else []
        opts += [(x + a - b + 3) // 2 + (x + b - a + 1) // 2] if b >= 2 else []
        return min(opts, default=max_weight + 1)

    return lattice.search(lattice.Model(
        a, b, 1, top, max_weight, 2 * max_weight + abs(a - b) + 2 * p_prime,
        f"({p},{p_prime},{a},{b})", partial(_step, dark, a), bounds, leave,
        build=partial(RsosPath, p, p_prime, a, b)))


def generating_function(p: int, p_prime: int, a: int, b: int, order: int) -> QSeries:
    """Weight generating function of the path set, counted with no path listed."""
    return QSeries(order, tuple(enumerate_paths(p, p_prime, a, b, order).counts))
