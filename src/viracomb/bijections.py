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
Each path is read once, when a stage builds it, and keeps its scan
(`_scan`), which the next stage reads off the path: the weights each stage
checks, and the peaks `_raise_peaks`, `_lower_peaks` and `bij2_inverse`
work on.

Every stage checks the exact weight bookkeeping it is supposed to satisfy,
and raises `AssertionError` explicitly (so under `python -O` too), so a
violation surfaces at the stage that caused it rather than as a bad round
trip.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

from . import halfpath as hp
from . import lattice
from . import rsos
from .halfpath import HalfPath
from .rsos import RsosPath


class BijectionDomainError(ValueError):
    """Input path lies outside the family a bijection is defined on."""


class StructureError(Exception):
    """Input passed validation but is not in the bijection's image."""


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


def _delete_pairs(seq: list[int], positions: list[int]) -> list[int]:
    """Delete (pos, pos+1) for each position, processed right to left."""
    out = list(seq)
    for pos in sorted(positions, reverse=True):
        del out[pos : pos + 2]
    return out


def _insert_notches(seq: list[int], notches: list[tuple[int, int]]) -> list[int]:
    """Insert (value+step, value) after each (pos, step), right to left.

    step +1 raises a notch above the host vertex, step -1 digs one below;
    repeated entries at one position stack into an oscillation.
    """
    out = list(seq)
    for pos, step in sorted(notches, reverse=True):
        h = out[pos]
        out[pos + 1 : pos + 1] = [h + step, h]
    return out


def _notched(path: RsosPath | HalfPath, notches: list[tuple[int, int]]) -> list[int]:
    """The path's heights, its tail padded to hold every notch, with the
    notches inserted.
    """
    upto = max([path.horizon] + [pos for pos, _ in notches]) + 2
    return _insert_notches(path.padded(upto), notches)


def _is_partition(parts: tuple[int, ...]) -> bool:
    return all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1)) and all(
        x >= 0 for x in parts
    )


def _gaps(positions: Sequence[int], upto: int) -> list[int]:
    """The positions 1..upto-1 missing from the given ones, in order."""
    taken = set(positions)
    return [x for x in range(1, upto) if x not in taken]


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


def _remove_pairs(path: RsosPath, pairs: list[tuple[int, int]]) -> RsosPath:
    """The path with both vertices of each adjacent pair (x, x+1) removed;
    the tail is padded first so the cut path still reaches the tail band.
    """
    seq = path.padded(path.horizon + 2 * len(pairs) + 2)
    cut = _delete_pairs(seq, [x for x, _ in pairs])
    return RsosPath.of(path.p, path.p_prime, path.a, path.b, cut)


def _raise_peaks(h: HalfPath, mu: tuple[int, ...]) -> HalfPath:
    """Raise the peaks numbered mu from the left (tail peaks included) by a
    notch each, read off h's scan: the weight w, the straight-vertex count
    l, the peaks and the valleys of h.  Raising c peaks adds exactly
    c(l+c-1)/2 + |mu| to the weight.
    """
    w, ell, tops, _ = h._scan
    c = len(mu)
    if not (all(x >= 1 for x in mu) and all(mu[i] > mu[i + 1] for i in range(c - 1))):
        raise AssertionError("peak numbers must be positive and strictly decrease")
    # numbers past the stored peaks land on the tail's peaks, two apart
    at = [tops[x - 1] if x <= len(tops) else h.horizon + 1 + 2 * (x - len(tops) - 1)
          for x in mu]
    raised = HalfPath.of(h.t2, h.a2, h.b2, _notched(h, [(x, 1) for x in at]))
    if raised._scan[0] != w + c * (ell + c - 1) // 2 + sum(mu):
        raise AssertionError("peak raising weight bookkeeping failed")
    return raised


def _lower_peaks(h: HalfPath, tops: tuple[int, ...],
                 parity: int) -> tuple[tuple[int, ...], HalfPath, tuple[int, ...]]:
    """Undo `_raise_peaks`: of the peaks `tops` of h, lower each one whose
    doubled height has the given parity (0: integer, 1: non-integer).

    Returns the peak numbers mu, largest first, the lowered path, which must
    have no such peak left, and its peaks.
    """
    raised = [(num + 1, pos) for num, pos in enumerate(tops)
              if h.doubled[pos] % 2 == parity]
    seq = _delete_pairs(list(h.doubled), [pos for _, pos in raised])
    cut = HalfPath.of(h.t2, h.a2, h.b2, seq)
    left = cut._scan[2]
    if any(cut.doubled[i] % 2 == parity for i in left):
        kind = "non-integer" if parity else "integer"
        raise StructureError(f"{kind} peaks remain after unstacking")
    return tuple([num for num, _ in reversed(raised)]), cut, left


def _notch_step(height: int) -> int:
    # Even hosts take the notch below, odd hosts above; in both families
    # this lands the new pair of edges in the band that keeps the inserted
    # vertices' scoring class correct and the host's class unchanged.
    return -1 if height % 2 == 0 else 1


def _reinsert(h_cut: RsosPath, positions: list[int], w_hat: int) -> RsosPath:
    """Put a particle back as a notch at each position of the cut path; the
    result must carry the weight w_hat.
    """
    notches = []
    for pos in positions:
        height = h_cut.height(pos)
        step = _notch_step(height)
        if not 1 <= height + step <= h_cut.p_prime - 1:
            raise StructureError(f"reinsertion at position {pos} leaves the strip")
        notches.append((pos, step))
    seq = _notched(h_cut, notches)
    out = RsosPath.of(h_cut.p, h_cut.p_prime, h_cut.a, h_cut.b, seq)
    if rsos.weight(out) != w_hat:
        raise StructureError("reinserted path does not reproduce the weight")
    return out


# -- the p' = 2p+1 family ----------------------------------------------------


def bij1_forward(path: RsosPath) -> tuple[HalfPath, Bij1Trace]:
    p, pp, a, b = path.p, path.p_prime, path.a, path.b
    if pp != 2 * p + 1:
        raise BijectionDomainError(f"expected p' = 2p+1, got ({p},{pp})")
    _require_domain(2 * p, a, b, f"(p,p',a,b)=({p},{pp},{a},{b}): half side ")

    w, scoring, _ = path._scan
    k = len(scoring)
    particles = _pair_runs(scoring)
    n = len(particles)

    # of the vertices 1..x1-1, x1 - 1 - rank(x1) are non-scoring
    lam = tuple([x1 - 1 - bisect_left(scoring, x1) for x1, _ in reversed(particles)])
    if not _is_partition(lam):
        raise AssertionError("particle labels must form a partition")

    h_cut = _remove_pairs(path, particles)
    w_cut, cut_scoring, _ = h_cut._scan
    k_cut = len(cut_scoring)
    if k_cut != k - 2 * n:
        raise AssertionError("particle removal must drop the scoring count by 2n")
    if w_cut != w - sum(lam) - n * (k - n):
        raise AssertionError("cut-path weight bookkeeping failed")

    h_hat_cut = HalfPath.of(2 * p, a, b, h_cut.heights)
    if h_hat_cut._scan[0] != w_cut:
        raise AssertionError("verbatim reread must preserve the weight")

    mu = tuple([lam[i] + n - i for i in range(n)])  # lam_i + n + 1 - (i+1)
    h_hat = _raise_peaks(h_hat_cut, mu)
    if h_hat_cut._scan[1] != 2 * k_cut:
        raise AssertionError("verbatim reread must double the straight-vertex count")
    if h_hat._scan[0] != w:
        raise AssertionError("the map must preserve the weight")
    return h_hat, Bij1Trace(h_cut, n, lam, mu, h_hat_cut, h_hat)


def bij1_inverse(path: HalfPath) -> RsosPath:
    if path.t2 % 2:
        raise BijectionDomainError(f"expected even T = 2p, got {path.t2}")

    w_hat, _, tops, _ = path._scan
    mu, h_hat_cut, _ = _lower_peaks(path, tops, 0)
    n = len(mu)
    lam = tuple([mu[i] - n + i for i in range(n)])  # mu_i - n - 1 + (i+1)
    if not _is_partition(lam):
        raise StructureError(f"integer-peak numbers {mu} do not define a partition")

    h_cut = RsosPath.of(*hp.rsos_label(path.t2, path.a2, path.b2), h_hat_cut.doubled)
    ns_list = _gaps(h_cut._scan[1], h_cut.horizon + 1)

    def nonscoring_position(j: int) -> int:
        if j <= 0:
            return 0
        if j <= len(ns_list):
            return ns_list[j - 1]
        return h_cut.horizon + (j - len(ns_list))  # tail vertices

    return _reinsert(h_cut, [nonscoring_position(lam_i) for lam_i in lam], w_hat)


# -- the p' = 2p-1 family ----------------------------------------------------


def bij2_forward(path: RsosPath) -> tuple[HalfPath, Bij2Trace]:
    p, pp, a = path.p, path.p_prime, path.a
    if pp != 2 * p - 1:
        raise BijectionDomainError(f"expected p' = 2p-1, got ({p},{pp})")
    bb = path.b + 1  # the even reference height just above the odd tail
    _require_domain(2 * p - 1, bb, a, f"(p,p',a,b)=({p},{pp},{a},{path.b}): half side ")

    w, scoring, _ = path._scan
    k = len(scoring)
    pairs = _pair_runs(_gaps(scoring, scoring[-1] if scoring else 0))
    lam = tuple([k - bisect_right(scoring, x2) for _, x2 in pairs])  # scoring after x2
    if not (all(x > 0 for x in lam) and _is_partition(lam)):
        raise AssertionError("pair labels must form a partition of positive parts")
    n = len(lam)

    h_cut = _remove_pairs(path, pairs)
    w_cut, cut_scoring, m = h_cut._scan
    if len(cut_scoring) != k:
        raise AssertionError(
            "removing non-scoring pairs must not change the scoring count")
    if w_cut != w - sum(lam):
        raise AssertionError("cut-path weight bookkeeping failed")

    c = 0
    while c < n and lam[c] - (c + 1) >= k - m:
        c += 1
    mu = tuple([lam[i] - (i + 1) - k + m + 1 for i in range(c)])
    nu = tuple(lam[c:])
    d = n - c

    # flip, raise every peak by half a unit, land in the doubled strip
    truncated = list(h_cut.heights)
    if truncated[-1] != bb:
        raise AssertionError("even cut horizon must end at the even tail height")
    rev = truncated[::-1]
    lifted = _insert_notches(rev, [(j, 1) for j in lattice.turns(rev, len(rev) - 1)[0]])
    lifted += [a + 1, a, a + 1, a]
    h_hat_cut = HalfPath.of(2 * p - 1, bb, a, lifted)

    if h_hat_cut._scan[0] != w_cut:
        raise AssertionError("flip and lift must preserve the weight")
    h_hat_int = _raise_peaks(h_hat_cut, mu)
    w_hat_int, _, tops, _ = h_hat_int._scan
    if h_hat_cut._scan[1] != 2 * k - 2 * m:
        raise AssertionError("flip and lift must leave 2k - 2m straight vertices")

    accretion = _accretion_positions(h_hat_int, tops)
    if nu and nu[0] > len(accretion):
        raise AssertionError("remainder labels exceed the accretion vertex count")
    notches2 = [(accretion[number - 1], 1) for number in nu]
    h_hat = HalfPath.of(2 * p - 1, bb, a, _notched(h_hat_int, notches2))

    w_hat = hp.weight(h_hat)
    if w_hat != w_hat_int + sum(nu):
        raise AssertionError("accretion weight bookkeeping failed")
    if w_hat != w:
        raise AssertionError("the map must preserve the weight")
    return h_hat, Bij2Trace(
        h_cut, n, k, m, c, d, lam, mu, nu, h_hat_cut, h_hat_int, h_hat
    )


def _accretion_positions(path: HalfPath, tops: tuple[int, ...]) -> list[int]:
    """Even positions where neither the vertex nor its successor is one of
    the peaks `tops`, numbered from the right (index 0 is the rightmost).
    """
    # position 0 is never a peak: the virtual H(-1) = A + 1 lies above it
    tops = set(tops)
    out = [i for i in range(0, path.horizon, 2) if i not in tops and i + 1 not in tops]
    return out[::-1]


def bij2_inverse(path: HalfPath) -> RsosPath:
    t2 = path.t2
    if t2 % 2 == 0:
        raise BijectionDomainError(f"expected odd T = 2p-1, got {t2}")
    bb, a = path.a2, path.b2  # start of the flipped image, even tail reference

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
    work = kept[:1:-1]  # left to right, the two heights past the horizon dropped
    # each strip moves the anchors of the strips right of it two to the left;
    # anchors are kept in the final coordinates
    count = len(stripped)
    removals = [j - 1 - 2 * (count - 1 - r) for r, j in enumerate(stripped)]

    h_hat_int = HalfPath.of(t2, bb, a, work)
    tops = h_hat_int._scan[2]
    accretion = _accretion_positions(h_hat_int, tops)
    numbers = {pos: num + 1 for num, pos in enumerate(accretion)}
    nu_parts = []
    for anchor in removals:
        if anchor not in numbers:
            raise StructureError(
                f"stripped insertion anchored off an accretion vertex ({anchor})"
            )
        nu_parts.append(numbers[anchor])
    nu = tuple(sorted(nu_parts, reverse=True))
    d = len(nu)

    # undo the staggered peak raises: non-integer peaks of the interim path
    mu, h_hat_cut, tops = _lower_peaks(h_hat_int, tops, 1)
    c = len(mu)

    # invert the flip-and-lift: lower every peak, reverse, restore the tail.
    # Ending at a under the tail's a + 1, the path has no peak at its horizon.
    truncated = list(h_hat_cut.doubled)
    if truncated[-1] != a:
        raise AssertionError("the unstacked path must end at the start height a")
    lowered = _delete_pairs(truncated, tops)
    rev = lowered[::-1]
    if rev[0] != a or rev[-1] != bb:
        raise AssertionError("the lowered, reversed path must run from a to the tail")
    rev += [bb - 1, bb, bb - 1]
    h_cut = RsosPath.of(*hp.rsos_label(t2, bb, a), rev)

    _, scoring, m = h_cut._scan
    k = len(scoring)

    lam = tuple([mu[i] + (i + 1) + k - m - 1 for i in range(c)]) + nu
    n = c + d
    if not _is_partition(lam):
        raise StructureError(f"recovered labels {lam} are not a partition")
    if d and c < n and nu[0] - (c + 1) >= k - m:
        raise StructureError("prefix length is not maximal for the recovered labels")

    if lam and lam[0] > k:  # lam is a partition: its first label is the largest
        raise StructureError(f"label {lam[0]} exceeds the scoring count {k}")
    return _reinsert(h_cut, [0 if x == k else scoring[k - x - 1] for x in lam], w_hat)


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
