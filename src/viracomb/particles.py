"""Particle calculus on half-lattice paths that start and end at height 1.

Every peak of such a path is assigned a charge by a right-to-left scan of
increasing charge values; a charge-d/2 particle owns a horizontal baseline
nominally of doubled length 2d drawn d below its peak, and one valley per
baseline is discounted from later scans.  The infinite tail supplies an
inexhaustible sea of charge-1/2 particles.  Paths with the same multiset
of charges >= 1 form a sector; the minimal path of a sector lines its
particles up against the left wall in decreasing charge order, and every
other member is reached from it by weight-one particle moves.

A dissection reads only the stored heights: it takes the stored peaks and
the valleys from the path's half scan, the one vertex pass that also
weighs it, and every baseline closes by the horizon, where the stored
heights end at the bottom of the strip.  The charge passes then work on
one chain, the peaks still waiting and the valleys still live, which
alternate along the path from the wall to the horizon: they do at the
start, and every peak that takes a charge leaves the chain with one of
its two neighbouring valleys.  So a peak's nearest live valleys are its
neighbours in the chain, found by index, and the passes stop as soon as
no peak waits.  A path is read once, when it is built, and keeps its scan;
its dissection is computed at most once per path object and kept in the
path's `__dict__` beside the scan, however often a move and its caller
weigh and dissect it.  A listed move carries the edit found for it
and the path it was listed on, so applying it plans nothing again and
reads that path once more, for one padded copy.

Every path of the model dissects (Bressoud and Warnaar's method), and a
listed move is meant to add one to the weight and keep the sector, so a
check of either that fails is the program's fault, not the input's: a
`lattice.InvariantError` naming the function (`dissect`, `apply_move`,
...) and the offending path line, or the sector checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import halfpath as hp
from .characters import _walk, b_matrix
from .halfpath import HalfPath
from .lattice import InvariantError
from .qseries import QSeries


class Particle(NamedTuple):
    peak: int      # doubled position of the peak vertex
    charge2: int   # doubled charge, 1..T-2
    origin: int    # doubled position of the left end of the baseline
    base_h: int    # doubled height of the baseline
    length: int    # doubled length of the baseline; 2*charge2 when unsquashed


@dataclass(frozen=True)
class Dissection:
    path: HalfPath
    particles: tuple[Particle, ...]  # stored peaks, left to right
    sector: tuple[int, ...]          # counts of doubled charges 2..T-2


def dissect(path: HalfPath) -> Dissection:
    """Assign a charge and baseline to every stored peak.

    Only defined on paths with start and tail height 1 (doubled 2); the
    charge-1/2 tail peaks are handled implicitly: each discounts the valley
    to its right, leaving the junction valley available to stored peaks.

    The particles and the sector are worked out once per path object, from
    the peaks and valleys of the path's half scan, and kept in its
    `__dict__`, out of the fields, so `==`, `hash`, `repr` and `to_line`
    never see them; each call returns a fresh `Dissection`, and a refusal
    keeps nothing, so it raises every time.
    """
    memo = vars(path)
    if "dissect" not in memo:
        memo["dissect"] = _dissect(path)
    return Dissection(path, *memo["dissect"])


def _dissect(path: HalfPath) -> tuple[tuple[Particle, ...], tuple[int, ...]]:
    """The particles and the sector behind `dissect`.

    The scan keeps the live valleys, those no particle has discounted yet,
    and the waiting peaks, by their index in the stored peaks, as one
    alternating chain: live[j] < peaks[waiting[j]] < live[j + 1].  The
    half scan's peaks and valleys alternate, from the valley at the wall to
    the one at the horizon, and a peak that takes a charge removes itself
    and one of its two neighbours, which leaves the rest alternating.  So a
    peak's nearest live valleys are live[j] and live[j + 1], with no search.
    A pass for charge d/2 walks the waiting peaks right to left, and a peak
    whose right or left neighbour lies d below it (the right one on a tie)
    takes charge d/2 and removes that valley; the pass compacts the chain in
    place as it goes.  The particle's baseline runs from that valley past
    the peak to the first vertex at the baseline's height; that vertex lies
    between the wall and the horizon, since the stored heights start and
    end at 2.  They do because every path is read when it is built, and
    its read refuses storage that is not canonical.
    """
    if path.a2 != 2 or path.b2 != 2:
        raise ValueError("dissection is defined on paths from height 1 to height 1")
    t2 = path.t2
    H = path.doubled
    horizon = path.horizon
    # position 0 is always a valley: H(-1) = 3 (virtual) and H(1) = 3 lie
    # above it; so is a nonzero horizon, where the stored 2 meets the tail's
    # 3; the half scan reads both, and no peak lies outside them
    _, _, peaks, valleys = path._scan
    live = list(valleys)  # compacted in place below
    parts: list = [None] * len(peaks)
    sector = [0] * (t2 - 3)

    # the chain: live[j] < peaks[waiting[j]] < live[j + 1]
    waiting = list(range(len(peaks)))
    for charge2 in range(1, t2 - 1):
        n = len(waiting)
        if not n:
            break
        # right to left, compacting the chain into its right end: the
        # survivors are written at slots k and their right valleys at k + 1,
        # never left of what is still to be read
        k = n
        right = live[n]
        for j in range(n - 1, -1, -1):
            left = live[j]
            index = waiting[j]
            peak = peaks[index]
            base_h = H[peak] - charge2
            if H[right] == base_h:  # ties go to the right
                identified, right = right, left
            elif H[left] == base_h:
                identified = left
            else:
                k -= 1
                waiting[k] = index
                live[k + 1] = right
                right = left
                continue
            if charge2 == 1:
                origin, end = peak - 1, peak + 1
            elif identified > peak:  # the baseline closes left of the peak
                origin, end = peak - 1, identified
                while origin >= 0 and H[origin] != base_h:
                    origin -= 1
                if origin < 0:
                    raise InvariantError("dissect", "baseline ran off the left wall",
                                         path.to_line())
            else:  # it closes right of the peak
                origin, end = identified, peak + 1
                while end <= horizon and H[end] != base_h:
                    end += 1
                if end > horizon:
                    raise InvariantError("dissect", "baseline ran past the tail without closing",
                                         path.to_line())
            parts[index] = Particle(peak, charge2, origin, base_h, end - origin)
        live[k] = right
        if k:
            del waiting[:k], live[:k]
            if charge2 >= 2:
                sector[charge2 - 2] = k

    if waiting:
        raise InvariantError("dissect", f"peaks without a charge after the scan: "
                             f"{[peaks[i] for i in waiting]}", path.to_line())
    return tuple(parts), tuple(sector)


def _sector(t2: int, sector: tuple[int, ...]) -> tuple[int, ...]:
    """The sector as a tuple, refused unless it is one of T: T = 2t >= 4
    first, then its length T - 3, then its counts, each nonnegative.
    """
    sector = tuple(sector)
    if t2 < 4:
        raise ValueError(f"need T = 2t >= 4, got {t2}")
    if len(sector) != t2 - 3:
        raise ValueError(f"sector must have length {t2 - 3}, got {len(sector)}")
    if any(x < 0 for x in sector):
        raise ValueError(f"occupation numbers must be nonnegative, got sector {sector}")
    return sector


def minimal_path(t2: int, sector: tuple[int, ...]) -> HalfPath:
    """Triangles of decreasing charge flush against the left wall."""
    sector = _sector(t2, sector)
    hs = [2]
    for charge2 in range(t2 - 2, 1, -1):
        for _ in range(sector[charge2 - 2]):
            hs.extend(range(3, charge2 + 3))          # ascend to 2 + charge2
            hs.extend(range(charge2 + 1, 1, -1))      # descend back to 2
    out = HalfPath.of(t2, 2, 2, hs)
    check = dissect(out)
    if check.sector != sector:
        raise InvariantError("minimal_path", f"it dissects to {check.sector}, expected {sector}",
                             out.to_line())
    return out


def minimal_weight(t2: int, sector: tuple[int, ...]) -> int:
    """Half the value of the occupation vector under the charge form."""
    sector = _sector(t2, sector)
    total = sum(ni * bij * nj for ni, row in zip(sector, b_matrix(t2))
                for bij, nj in zip(row, sector))
    if total % 2:
        raise InvariantError("minimal_weight", f"charge form {total} is odd",
                             f"sector {sector} of T={t2}")
    return total // 2


def sector_gf(t2: int, sector: tuple[int, ...], order: int) -> QSeries:
    """Weight generating function of one sector: its fermionic term shifted
    by the minimal weight, which is the fermionic walk over that one
    occupation vector (`characters._walk`).  `minimal_weight` refuses a
    sector that is not one of T.
    """
    if minimal_weight(t2, sector) > order:
        return QSeries.zero(order)
    return _walk(t2, order, tuple(sector))


# -- particle moves -----------------------------------------------------------


@dataclass(frozen=True)
class Move:
    particle: Particle
    owner: Particle
    sector: tuple[int, ...]  # sector of the path the move was listed on
    weight: int              # weight of that path
    path: HalfPath           # that path
    plan: tuple              # the edit `_move_plan` found on it


def _candidates(path: HalfPath, dis: Dissection) -> list[Particle]:
    # stored particles plus the first tail particle, which is the only sea
    # member that can ever move
    tail = Particle(path.horizon + 1, 1, path.horizon, 2, 2)
    return list(dis.particles) + [tail]


def _slope_owner(q: Particle, others: list[Particle]) -> Particle | None:
    """The particle whose slope contains q's origin.

    The origin lies on a slope when it sits strictly above that particle's
    baseline within its span, or exactly at the baseline's right end (the
    flush contact of side-by-side particles).  A touch at the same height
    anywhere else is a boundary artifact of a stretched baseline and owns
    nothing.  Among owners, the highest baseline wins; the shortest on ties.
    """
    best = None
    q_peak, _, q_origin, q_base, _ = q
    for p in others:
        peak, _, origin, base_h, length = p
        if peak != q_peak and (
            base_h < q_base and origin <= q_origin <= origin + length  # strictly above
            or base_h == q_base and q_origin == origin + length        # flush right
        ):
            key = (-base_h, length, peak)
            if best is None or key < best[0]:
                best = (key, p)
    return best[1] if best else None


def _move_plan(path: HalfPath, q: Particle, p: Particle):
    """The concrete edit a move would perform, or None when the contact is
    spurious (an origin touching a squashed or stretched stretch of slope
    supports no consistent enactment).
    """
    q_peak, d2, q_origin, _, _ = q
    p_peak = p.peak
    # every position read below lies at or left of the farther peak or the
    # right end of q's nominal baseline
    H = path.padded(max(q_peak, p_peak, q_origin + 2 * d2))
    hq, hr = H[q_peak], H[p_peak]
    if q_peak > p_peak and hr == hq + 1:
        # a genuine half-height contact sits at exactly this offset
        if q_peak != p_peak + 2 * d2 + 1:
            return None
        return ("exchange", p_peak, q_peak)
    if q_peak > p_peak and hq == hr:
        origin = q_origin - (q_peak - p_peak)  # hand the role to the left peak
    elif q_peak < p_peak or hq <= hr - 2:
        origin = q_origin
    else:
        return None
    if origin < 2:
        return None
    delta = H[origin - 2] - H[origin]
    if abs(delta) != 2:
        return None  # the two edges to the left do not align
    top = max(H[origin : origin + 2 * d2 + 1])
    if not 2 <= top + delta <= path.t2:
        return None
    return ("shift", origin)


def enumerate_moves(path: HalfPath) -> list[Move]:
    """All permitted moves: squashed baselines, wall-blocked particles,
    equal-charge contacts and spurious slope touches are excluded.
    """
    dis = dissect(path)
    cands = _candidates(path, dis)
    weight = hp.weight(path)
    moves = []
    for q in cands:
        if q.length != 2 * q.charge2:
            continue
        if q.origin <= 0:
            continue
        owner = _slope_owner(q, cands)
        if owner is None or owner.charge2 <= q.charge2:
            continue
        plan = _move_plan(path, q, owner)
        if plan is None:
            continue
        moves.append(Move(q, owner, dis.sector, weight, path, plan))
    return moves


def apply_move(path: HalfPath, move: Move) -> HalfPath:
    """Enact a permitted move; the weight grows by exactly one and the
    sector is unchanged.  The move must have been listed on this path: it
    carries the edit `enumerate_moves` found there, which is enacted on one
    padded copy of the path.  Weight and sector are checked against what
    the move recorded: the new path is weighed and dissected, and the
    starting path is neither weighed nor dissected again.  The new path
    keeps its scan and its dissection, so a caller that weighs and
    dissects it again reads nothing twice.
    """
    if move.path != path:
        raise ValueError("the move was listed on another path")
    q, p, plan = move.particle, move.owner, move.plan
    d2 = q.charge2
    seq = path.padded(max(path.horizon, q.origin + 2 * d2, p.peak) + 2 * d2 + 8)

    if plan[0] == "exchange":
        _, r_peak, q_peak = plan
        del seq[r_peak : r_peak + 2]               # lower the taller peak
        j = q_peak - 2
        seq[j + 1 : j + 1] = [seq[j] + 1, seq[j]]  # raise the mover
    else:
        seq = _shift_particle(seq, plan[1], d2)

    new = HalfPath.of(path.t2, path.a2, path.b2, seq)
    if hp.weight(new) != move.weight + 1:
        raise InvariantError("apply_move", "a move must add exactly one", new.to_line())
    if dissect(new).sector != move.sector:
        raise InvariantError("apply_move", "a move must fix the sector", new.to_line())
    return new


def _shift_particle(seq: list[int], origin: int, d2: int) -> list[int]:
    """Slide the triangle over [origin, origin+2*d2] two half-units left and
    two up or down, re-hanging the two displaced edges on its right.
    """
    if origin < 2:
        raise InvariantError("apply_move", f"no room to the left of the particle at {origin}",
                             f"H={','.join(map(str, seq))}")
    delta = seq[origin - 2] - seq[origin]
    if abs(delta) != 2:
        raise InvariantError("apply_move", f"the two edges left of the particle at {origin} "
                             "must align", f"H={','.join(map(str, seq))}")
    s = delta // 2
    end = origin + 2 * d2
    out = seq[: origin - 1]
    out.extend(v + delta for v in seq[origin + 1 : end + 1])
    out.append(seq[end] + s)
    out.append(seq[end])
    out.extend(seq[end + 1 :])
    return out
