"""Weight-preserving bijections between RSOS and half-lattice paths.

Two families are covered, with all intermediate data exposed in a trace:

* p' = 2p+1, start and tail heights both even: particles are adjacent
  pairs of scoring vertices; removing them, reading the cut path verbatim
  as doubled heights, and re-heightening a staggered set of peaks gives a
  half-lattice path of the same weight.

* p' = 2p-1, even start a and tail at odd b-1: particles are adjacent
  pairs of non-scoring vertices against an infinite zero-label sea; after
  removal the cut path is flipped, every peak is raised half a unit, a
  prefix of the label partition raises further peaks, and the remainder is
  deposited at accretion vertices.

Both maps run through the same shared steps: `_remove_pairs` cuts the
particles out of the RSOS path, `_raise_peaks` raises the peaks numbered
mu (adding c(l+c-1)/2 + |mu| to the weight, with l the straight-vertex
count), `_lower_peaks` undoes it, and `_reinsert` puts the particles
back.  Only the middle stage is family-specific: the verbatim reread for
p' = 2p+1, the flip-and-lift and accretion for p' = 2p-1.  `forward` and
`inverse` pick the family from p' or from the parity of T.

Each map is defined exactly on the Theorem-1 labels of its half side,
(2p, a, b) for p' = 2p+1 and (2p-1, b+1, a) for p' = 2p-1.  Those are the
labels a half path can carry, so an inverse map needs only its family
check, and it takes its RSOS side's label from `hp.rsos_label`; a forward
map states its own half side and refuses any other label through
`hp.theorem1_domain` after its own.  A path that breaks a path rule, or is
not stored canonically, cannot reach a map: its constructor refuses it.

Every stage is a path: its heights are framed by `lattice.frame` (through
the canonical horizon and one past it), or, for a verbatim reread, are the
frame of the stage before it, taken as it is, and scanned by its class's own
vertex scan, `_scan_frame`, which gives the weight each stage checks and
the scoring positions, straight-vertex count and peaks the next stage works
on.  A map's output is its last stage, so no map reads a path; the label
is the input's own, and storage is canonical as framed.  A stage builds its
path object when it is first asked for: as the output, for a forward map's
trace, which holds its stage paths, or for an error line; so an inverse map
builds only its output.

Every stage checks the exact weight bookkeeping and count identities it is
supposed to satisfy against the facts scanned from its own heights, each
in one `check` line, and a path rule its list breaks (strip, unit step,
odd valley, end in the band) fails that scan, the output's included.
An inverse map's checks that its input lies in the image (the peaks left
after unstacking, the recovered labels, the reinsertion) are stage checks
too: every path of a Theorem-1 label lies in its map's image, so no valid
input fails one.  A forward map's check that its input's particle (or
pair) labels form a partition is no stage's: it raises on the input's own
line.  Each raises `lattice.InvariantError`, an `AssertionError` raised
explicitly (so under `python -O` too), which names the map, the stage and
the offending path line, so a violation surfaces at the stage that caused
it rather than as a bad round trip.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from operator import ge, gt

from . import halfpath as hp
from . import lattice
from .halfpath import HalfPath
from .lattice import InvariantError
from .rsos import RsosPath


class BijectionDomainError(ValueError):
    """Input path lies outside the family a bijection is defined on."""


class _Stage:
    """One stage of a map, named `name`: its heights under a path label,
    framed (`seq`, through the canonical horizon and one past it), and their
    scan by the path class's `_scan_frame`.  Given a previous stage for its
    heights, it rereads that stage's frame as it is, under its own label.
    Its path, stored through that frame with that scan, is built when first
    asked for.
    A path rule the heights break, or a fact `check` is given that does not
    hold, is an `InvariantError` naming the stage (or `name`) and its path
    line; `check` formats its detail with its `args`, if any (`%`), only then.
    """

    __slots__ = ("name", "cls", "label", "seq", "scan", "_path")

    def __init__(self, name: str, cls, label: tuple, hs: list[int] | _Stage) -> None:
        self.name, self.cls, self.label, self.scan, self._path = name, cls, label, None, None
        self.seq = hs.seq if isinstance(hs, _Stage) else lattice.frame(hs, label[-1])
        try:
            self.scan = cls._scan_frame(label, self.seq)
        except (lattice.InvalidPathError, InvariantError) as exc:
            self.check(False, str(exc))

    @property
    def horizon(self) -> int:
        """The canonical horizon L of the stage's heights."""
        return len(self.seq) - 2

    @property
    def path(self):
        """The stage's path, built when first asked for and kept."""
        if self._path is None:
            self._path = self.cls._framed(self.label, tuple(self.seq[:-1]), self.scan)
        return self._path

    def check(self, ok: bool, detail: str, *args, name: str | None = None) -> None:
        if not ok:
            raise InvariantError(name or self.name, detail % args if args else detail,
                                 self.path.to_line())


@dataclass(frozen=True)
class Bij1Trace:
    h_cut: RsosPath
    n: int
    lam: tuple[int, ...]
    mu: tuple[int, ...]
    h_hat_cut: HalfPath
    h_hat: HalfPath


@dataclass(frozen=True)
class Bij2Trace:
    h_cut: RsosPath
    n: int
    k: int
    m: int
    c: int
    d: int
    lam: tuple[int, ...]
    mu: tuple[int, ...]
    nu: tuple[int, ...]
    h_hat_cut: HalfPath
    h_hat_int: HalfPath
    h_hat: HalfPath


# -- small sequence editors --------------------------------------------------


def _delete_pairs(seq: Sequence[int], positions: list[int]) -> list[int]:
    """Delete (pos, pos+1) for each position, processed right to left."""
    out = list(seq)
    for pos in sorted(positions, reverse=True):
        del out[pos : pos + 2]
    return out


def _insert_notches(seq: list[int], notches: list[tuple[int, int]]) -> list[int]:
    """Insert (value+step, value) after each (pos, step), right to left.

    step +1 raises a notch above the host vertex, step -1 digs one below;
    repeated entries at one position stack into an oscillation.  Edits seq
    in place, a list its callers have just built, and returns it.
    """
    for pos, step in sorted(notches, reverse=True):
        h = seq[pos]
        seq[pos + 1 : pos + 1] = [h + step, h]
    return seq


def _padded(h: _Stage, positions: list[int]) -> list[int]:
    """A new list of the heights of stage h, its tail padded to two past its
    horizon and past every position, for notches to go in at them.
    """
    return lattice.padded(h.seq, h.label[-1], max([h.horizon, *positions]) + 2)


def _is_partition(parts: tuple[int, ...], least: int = 0) -> bool:
    """Whether parts weakly decrease, each at least `least`."""
    return all(map(ge, parts, parts[1:])) and (not parts or parts[-1] >= least)


def _gaps(positions: Sequence[int], upto: int) -> list[int]:
    """The positions 1..upto-1 missing from the given ones, in order."""
    return sorted(set(range(1, upto)).difference(positions))


def _pair_runs(positions: Sequence[int]) -> list[tuple[int, int]]:
    """Pair consecutive positions left to right inside each maximal run.

    A leftover single at the right end of a run is not a particle.  One
    pass: a position opens a pair unless it closes the one held open.
    """
    pairs = []
    held = None  # the opening position of an unfinished pair
    for x in positions:
        if held is not None and x == held + 1:
            pairs.append((held, x))
            held = None
        else:
            held = x
    return pairs


# -- the steps both families share -------------------------------------------


def _require_domain(t2: int, a2: int, b2: int, rsos_label: str) -> None:
    """Refuse an RSOS path whose half side (T, A, B) lies outside
    `hp.theorem1_domain`, the labels both families are defined on, naming
    its RSOS label first.
    """
    if not hp.theorem1_domain(t2, a2, b2):
        raise BijectionDomainError(
            f"{rsos_label}(T,A,B)=({t2},{a2},{b2}) is outside the Theorem-1 domain")


def _remove_pairs(path: RsosPath, pairs: list[tuple[int, int]]) -> list[int]:
    """The path's heights with both vertices of each adjacent pair (x, x+1)
    removed; the tail is padded first so the cut still reaches the tail
    band.
    """
    seq = path.padded(path.horizon + 2 * len(pairs) + 2)
    return _delete_pairs(seq, [x for x, _ in pairs])


def _raise_peaks(name: str, h: _Stage, mu: tuple[int, ...]) -> tuple[list[int], int]:
    """The heights of the half-path stage h with the peaks numbered mu from
    the left (tail peaks included) raised by a notch each, read off its
    scan: the straight-vertex count l and the peaks.  Returns them with
    what raising c peaks adds to the weight, exactly c(l+c-1)/2 + |mu|,
    for the caller to check on their own scan; `name` names the stage.
    """
    _, ell, tops, _ = h.scan
    c = len(mu)
    h.check(all(map(gt, mu, mu[1:])) and (not mu or mu[-1] >= 1),
            "peak numbers must be positive and strictly decrease", name=name)
    # numbers past the stored peaks land on the tail's peaks, two apart
    stored, first = len(tops), h.horizon + 1
    at = [tops[x - 1] if x <= stored else first + 2 * (x - stored - 1) for x in mu]
    return _insert_notches(_padded(h, at), [(x, 1) for x in at]), c * (ell + c - 1) // 2 + sum(mu)


def _lower_peaks(name: str, half: tuple, seq: Sequence[int], tops: Sequence[int],
                 parity: int) -> tuple[tuple[int, ...], _Stage]:
    """Undo `_raise_peaks`: of the peaks `tops` of the half path seq (label
    half), lower each one whose doubled height has the given parity (0:
    integer, 1: non-integer).

    Returns the peak numbers mu, largest first, and the lowered stage,
    which must have no such peak left.
    """
    raised = [(num + 1, pos) for num, pos in enumerate(tops) if seq[pos] % 2 == parity]
    cut = _Stage(name, HalfPath, half, _delete_pairs(seq, [pos for _, pos in raised]))
    cut.check(not any(cut.seq[i] % 2 == parity for i in cut.scan[2]),
              "%s peaks remain after unstacking", "non-integer" if parity else "integer")
    return tuple([num for num, _ in reversed(raised)]), cut


def _notch_step(height: int) -> int:
    # Even hosts take the notch below, odd hosts above; in both families
    # this lands the new pair of edges in the band that keeps the inserted
    # vertices' scoring class correct and the host's class unchanged.
    return -1 if height % 2 == 0 else 1


def _reinsert(name: str, h_cut: _Stage, positions: list[int], w_hat: int) -> RsosPath:
    """Put a particle back as a notch at each position of the RSOS stage
    h_cut; the result, the map's output and its last stage (`name`), must
    carry the weight w_hat.
    """
    pp = h_cut.label[1]
    seq = _padded(h_cut, positions)
    notches = []
    for pos in positions:
        step = _notch_step(seq[pos])
        h_cut.check(1 <= seq[pos] + step < pp, "reinsertion at position %d leaves the strip", pos,
                    name=name)
        notches.append((pos, step))
    out = _Stage(name, RsosPath, h_cut.label, _insert_notches(seq, notches))
    out.check(out.scan[0] == w_hat, "reinserted path does not reproduce the weight")
    return out.path


# -- the p' = 2p+1 family ----------------------------------------------------


def bij1_forward(path: RsosPath) -> tuple[HalfPath, Bij1Trace]:
    p, pp, a, b = label = path.p, path.p_prime, path.a, path.b
    if pp != 2 * p + 1:
        raise BijectionDomainError(f"expected p' = 2p+1, got ({p},{pp})")
    _require_domain(2 * p, a, b, f"(p,p',a,b)=({p},{pp},{a},{b}): half side ")
    half = (2 * p, a, b)

    w, scoring, _ = path._scan
    k = len(scoring)
    particles = _pair_runs(scoring)
    n = len(particles)

    # of the vertices 1..x1-1, x1 - 1 - rank(x1) are non-scoring
    lam = tuple([x1 - 1 - bisect_left(scoring, x1) for x1, _ in reversed(particles)])
    if not _is_partition(lam):
        raise InvariantError("bij1_forward particles", "particle labels must form a partition",
                             path.to_line())

    h_cut = _Stage("bij1_forward cut", RsosPath, label, _remove_pairs(path, particles))
    w_cut, cut_scoring, _ = h_cut.scan
    k_cut = len(cut_scoring)
    h_cut.check(k_cut == k - 2 * n, "particle removal must drop the scoring count by 2n")
    h_cut.check(w_cut == w - sum(lam) - n * (k - n), "cut-path weight bookkeeping failed")

    # the verbatim reread: the cut's own frame, as the tail bands coincide
    h_hat_cut = _Stage("bij1_forward reread", HalfPath, half, h_cut)
    w_hat_cut, ell, _, _ = h_hat_cut.scan
    h_hat_cut.check(w_hat_cut == w_cut, "verbatim reread must preserve the weight")
    h_hat_cut.check(ell == 2 * k_cut, "verbatim reread must double the straight-vertex count")

    mu = tuple([lam[i] + n - i for i in range(n)])  # lam_i + n + 1 - (i+1)
    raised, gain = _raise_peaks("bij1_forward raise", h_hat_cut, mu)
    h_hat = _Stage("bij1_forward raise", HalfPath, half, raised)
    h_hat.check(h_hat.scan[0] == w_hat_cut + gain, "peak raising weight bookkeeping failed")
    h_hat.check(h_hat.scan[0] == w, "the map must preserve the weight", name="bij1_forward")
    return h_hat.path, Bij1Trace(h_cut.path, n, lam, mu, h_hat_cut.path, h_hat.path)


def bij1_inverse(path: HalfPath) -> RsosPath:
    if path.t2 % 2:
        raise BijectionDomainError(f"expected even T = 2p, got {path.t2}")
    half = (path.t2, path.a2, path.b2)
    label = hp.rsos_label(*half)

    w_hat, _, tops, _ = path._scan
    mu, h_hat_cut = _lower_peaks("bij1_inverse lower", half, path.doubled, tops, 0)
    n = len(mu)
    lam = tuple([mu[i] - n + i for i in range(n)])  # mu_i - n - 1 + (i+1)
    h_hat_cut.check(_is_partition(lam), "integer-peak numbers %s do not define a partition", mu)

    # the lowered path read as an RSOS path, on its own frame
    h_cut = _Stage("bij1_inverse cut", RsosPath, label, h_hat_cut)
    # label j goes to the j-th non-scoring vertex (to position 0 for j = 0),
    # past the stored ones to the tail's vertices
    ns = [0, *_gaps(h_cut.scan[1], h_cut.horizon + 1)]
    tail = h_cut.horizon + 1 - len(ns)
    return _reinsert("bij1_inverse reinsert", h_cut,
                     [ns[j] if j < len(ns) else tail + j for j in lam], w_hat)


# -- the p' = 2p-1 family ----------------------------------------------------


def bij2_forward(path: RsosPath) -> tuple[HalfPath, Bij2Trace]:
    p, pp, a = path.p, path.p_prime, path.a
    label = (p, pp, a, path.b)
    if pp != 2 * p - 1:
        raise BijectionDomainError(f"expected p' = 2p-1, got ({p},{pp})")
    bb = path.b + 1  # the even reference height just above the odd tail
    _require_domain(2 * p - 1, bb, a, f"(p,p',a,b)=({p},{pp},{a},{path.b}): half side ")
    half = (2 * p - 1, bb, a)

    w, scoring, _ = path._scan
    k = len(scoring)
    pairs = _pair_runs(_gaps(scoring, scoring[-1] if scoring else 0))
    lam = tuple([k - bisect_right(scoring, x2) for _, x2 in pairs])  # scoring after x2
    if not _is_partition(lam, 1):
        raise InvariantError("bij2_forward pairs",
                             "pair labels must form a partition of positive parts", path.to_line())
    n = len(lam)

    h_cut = _Stage("bij2_forward cut", RsosPath, label, _remove_pairs(path, pairs))
    w_cut, cut_scoring, m = h_cut.scan
    h_cut.check(len(cut_scoring) == k,
                "removing non-scoring pairs must not change the scoring count")
    h_cut.check(w_cut == w - sum(lam), "cut-path weight bookkeeping failed")

    c = 0
    while c < n and lam[c] - (c + 1) >= k - m:
        c += 1
    mu = tuple([lam[i] - (i + 1) - k + m + 1 for i in range(c)])
    nu = tuple(lam[c:])
    d = n - c

    # flip, raise every peak by half a unit, land in the doubled strip
    h_cut.check(h_cut.seq[-2] == bb, "even cut horizon must end at the even tail height",
                name="bij2_forward flip")
    rev = h_cut.seq[-2::-1]
    lifted = _insert_notches(rev, [(j, 1) for j in lattice.turns(rev, len(rev) - 1)])
    lifted += [a + 1, a, a + 1, a]
    h_hat_cut = _Stage("bij2_forward flip", HalfPath, half, lifted)
    w_hat_cut, ell, _, _ = h_hat_cut.scan
    h_hat_cut.check(w_hat_cut == w_cut, "flip and lift must preserve the weight")
    h_hat_cut.check(ell == 2 * k - 2 * m, "flip and lift must leave 2k - 2m straight vertices")

    raised, gain = _raise_peaks("bij2_forward raise", h_hat_cut, mu)
    h_hat_int = _Stage("bij2_forward raise", HalfPath, half, raised)
    w_hat_int, _, tops, _ = h_hat_int.scan
    h_hat_int.check(w_hat_int == w_hat_cut + gain, "peak raising weight bookkeeping failed")

    accretion = _accretion_positions(h_hat_int.horizon, tops)
    h_hat_int.check(not nu or nu[0] <= len(accretion),
                    "remainder labels exceed the accretion vertex count",
                    name="bij2_forward accrete")
    spots = [accretion[number - 1] for number in nu]
    h_hat = _Stage("bij2_forward accrete", HalfPath, half,
                   _insert_notches(_padded(h_hat_int, spots), [(x, 1) for x in spots]))

    w_hat = h_hat.scan[0]
    h_hat.check(w_hat == w_hat_int + sum(nu), "accretion weight bookkeeping failed")
    h_hat.check(w_hat == w, "the map must preserve the weight", name="bij2_forward")
    return h_hat.path, Bij2Trace(h_cut.path, n, k, m, c, d, lam, mu, nu, h_hat_cut.path,
                                 h_hat_int.path, h_hat.path)


def _accretion_positions(horizon: int, tops: Sequence[int]) -> list[int]:
    """Even positions before the horizon where neither the vertex nor its
    successor is one of the peaks `tops`, numbered from the right (index 0
    is the rightmost).
    """
    # position 0 is never a peak: the virtual H(-1) = A + 1 lies above it
    return sorted(set(range(0, horizon, 2)).difference(tops, [x - 1 for x in tops]),
                  reverse=True)


def bij2_inverse(path: HalfPath) -> RsosPath:
    t2 = path.t2
    if t2 % 2 == 0:
        raise BijectionDomainError(f"expected odd T = 2p-1, got {t2}")
    bb, a = path.a2, path.b2  # start of the flipped image, even tail reference
    half = (t2, bb, a)
    label = hp.rsos_label(*half)

    w_hat = hp.weight(path)

    # undo the accretion insertions: strip the rightmost non-integer peak
    # whose neighbours are not both straight, again and again.  Stripping
    # the pair (j, j+1) keeps every height right of it and leaves no such
    # peak at or right of j, so one right-to-left scan finds them all:
    # `kept` holds the heights already scanned, stripped pairs left out,
    # nearest last.  Heights run two past the horizon; the virtual start
    # H(-1) = B + 1 comes last, where index -1 reads it.
    horizon = path.horizon
    hs = path.padded(horizon + 2) + [bb + 1]
    kept = [hs[horizon + 2], hs[horizon + 1]]
    stripped: list[int] = []  # peak positions, right to left
    for j in range(horizon, -1, -1):
        h = hs[j]
        # odd (so 0 < j < horizon), a peak, and a neighbour not straight
        if h % 2 and hs[j - 1] < h > kept[-1] and (hs[j - 2] == h or h == kept[-2]):
            kept.pop()
            stripped.append(j)
        else:
            kept.append(h)
    # left to right, the two heights past the horizon dropped
    h_hat_int = _Stage("bij2_inverse strip", HalfPath, half, kept[:1:-1])
    # each strip moves the anchors of the strips right of it two to the left;
    # anchors are kept in the final coordinates
    count = len(stripped)
    removals = [j - 1 - 2 * (count - 1 - r) for r, j in enumerate(stripped)]

    tops = h_hat_int.scan[2]
    accretion = _accretion_positions(h_hat_int.horizon, tops)
    numbers = {pos: num + 1 for num, pos in enumerate(accretion)}
    off = next((anchor for anchor in removals if anchor not in numbers), None)
    h_hat_int.check(off is None, "stripped insertion anchored off an accretion vertex (%s)", off)
    nu = tuple(sorted([numbers[anchor] for anchor in removals], reverse=True))
    d = len(nu)

    # undo the staggered peak raises: non-integer peaks of the interim path
    mu, h_hat_cut = _lower_peaks("bij2_inverse lower", half, h_hat_int.seq, tops, 1)
    c = len(mu)

    # invert the flip-and-lift: lower every peak, reverse, restore the tail.
    # Ending at a under the tail's a + 1, the path has no peak at its horizon.
    h_hat_cut.check(h_hat_cut.seq[-2] == a, "the unstacked path must end at the start height a",
                    name="bij2_inverse flip")
    rev = _delete_pairs(h_hat_cut.seq[:-1], h_hat_cut.scan[2])[::-1]
    h_hat_cut.check(rev[0] == a and rev[-1] == bb,
                    "the lowered, reversed path must run from a to the tail",
                    name="bij2_inverse flip")
    rev += [bb - 1, bb, bb - 1]
    h_cut = _Stage("bij2_inverse flip", RsosPath, label, rev)
    _, scoring, m = h_cut.scan
    k = len(scoring)

    lam = tuple([mu[i] + (i + 1) + k - m - 1 for i in range(c)]) + nu
    n = c + d
    h_cut.check(_is_partition(lam), "recovered labels %s are not a partition", lam)
    h_cut.check(not (d and c < n and nu[0] - (c + 1) >= k - m),
                "prefix length is not maximal for the recovered labels")
    top = lam[0] if lam else 0  # lam is a partition: its first label is the largest
    h_cut.check(top <= k, "label %d exceeds the scoring count %d", top, k)
    return _reinsert("bij2_inverse reinsert", h_cut,
                     [0 if x == k else scoring[k - x - 1] for x in lam], w_hat)


# -- family dispatch ----------------------------------------------------------


def forward(path: RsosPath) -> tuple[HalfPath, Bij1Trace | Bij2Trace]:
    """The forward map of the path's family, picked from p'."""
    if path.p_prime == 2 * path.p + 1:
        return bij1_forward(path)
    if path.p_prime == 2 * path.p - 1:
        return bij2_forward(path)
    raise BijectionDomainError(f"p'={path.p_prime} is neither 2p+1 nor 2p-1 for p={path.p}")


def inverse(path: HalfPath) -> RsosPath:
    """The inverse map of the path's family, picked from the parity of T:
    p' = T + 1 for even T, p' = T for odd T.
    """
    return bij1_inverse(path) if path.t2 % 2 == 0 else bij2_inverse(path)
