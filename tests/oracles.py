"""Independent formulas that the tests hold the program to.

The weight formulas compute a path's weight by a route other than the one
`rsos.weight` or `halfpath.weight` takes, so an agreement on many paths
checks both; `raw_weight_quarters` is the half-path raw weight as the
paper defines it, a sum over a list of the straight vertices, and
`classify` is the RSOS vertex classification as the paper defines it, one
record per vertex.  `dissect_reference` is the particle dissection as it was
written before the one-scan version: a peak scan and a valley scan over
heights padded into the tail, and a closure that walks each baseline to its
far side.  `fermionic_sum_*_reference` are the Rogers-Ramanujan-type
closed forms with every term built alone from its own factor passes, as they
were written before each term was built from its neighbour, and
`fermionic_term` is one term of the fermionic sum built alone, for one
occupation vector, where the program's walk merges terms.  `rsos_of` and
`half_of` are the path constructors as they were written before one pass
read a path: a validation loop (`find_violation` for half paths), then
`canonical` storage, then a separate vertex pass (`rsos_scan`, `half_scan`),
each reading the whole sequence again.  They work on a path's fields, as a
tuple, not on a path object: the program's constructor reads every path it
builds, so an oracle that built one would refuse what the program refuses,
rightly or not.  `ground_state` is the straight staircase from A to B.  `pair_runs` is the bijections'
particle pairing as it was written before it took one pass, and
`BIJECTION_DOMAINS` the labels each bijection took as it checked them by
hand, before `halfpath.theorem1_domain` bounded every map.
`theorem1_label_reference` is the character label of a half-path space as
a closed formula, as it was written before it was read off
`halfpath.rsos_label`.  `search_states` is the live states of the bounded
search layer by layer, from a pass that carries no counts and reads the
model's rules afresh at every state, and `rsos_leave` the RSOS search's
bound of a run as it was written before its closed form, the lesser of
the two exits from the tail band.  The program itself never needs them.
"""

from bisect import bisect_left
from typing import NamedTuple

from math import gcd

from viracomb import halfpath, rsos
from viracomb.characters import CharacterLabel, m_vector
from viracomb.halfpath import HalfPath, InvalidHalfPathError
from viracomb.particles import Dissection, Particle
from viracomb.qseries import QSeries, _factor_product
from viracomb.rsos import InvalidPathError, RsosPath


PEAK = "peak"
VALLEY = "valley"
STRAIGHT_UP = "straight-up"
STRAIGHT_DOWN = "straight-down"


class VertexInfo(NamedTuple):
    x: int
    shape: str
    scoring: bool
    up: bool          # left edge NE
    value: int        # u_x if up else v_x


def classify(path: RsosPath) -> list[VertexInfo]:
    """Classification of vertices 1..L.  The startpoint is never classified,
    and tail vertices beyond L are non-scoring whenever the weight is finite.
    """
    dark = rsos.dark_floors(path.p, path.p_prime)
    hs = path.padded(path.horizon + 1)
    out = []
    for x in range(1, path.horizon + 1):
        prev, h, nxt = hs[x - 1], hs[x], hs[x + 1]
        up = prev < h
        shape = (PEAK if up else VALLEY) if nxt == prev else (STRAIGHT_UP if up else STRAIGHT_DOWN)
        out.append(VertexInfo(x, shape, _scores(dark, prev, h, nxt), up,
                              _label(path.a, x, prev, h)))
    return out


def _scores(dark: frozenset[int], prev: int, h: int, nxt: int) -> bool:
    """The paper's scoring rule, read off the band shading: the band just
    right of vertex x lies between h and nxt, and its floor is the lower of
    them.  A straight vertex scores when that band is dark, a peak or a
    valley when it is light.
    """
    dark_right = min(h, nxt) in dark
    return dark_right if nxt != prev else not dark_right


def _label(a: int, x: int, prev: int, h: int) -> int:
    """u_x after an up step, v_x after a down step; both labels are checked."""
    u = (x - h + a) // 2
    v = (x + h - a) // 2
    if u + v != x or u < 0 or v < 0:
        raise AssertionError(f"vertex-label check: vertex {x} has labels u={u}, v={v}")
    return u if prev < h else v


def canonical(hs: list[int], b: int) -> tuple[int, ...]:
    """Trim or extend so storage runs exactly through the canonical horizon:
    the first even position from which every height lies in {b, b+1}.
    """
    in_band = lambda h: h in (b, b + 1)
    # first index from which everything stored is a b/b+1 oscillation
    start = len(hs) - 1
    while start > 0 and in_band(hs[start - 1]):
        start -= 1
    lh = start if start % 2 == 0 else start + 1
    if lh < len(hs):
        return tuple(hs[: lh + 1])
    # stored data ends before the canonical horizon: extend by oscillation
    out = list(hs)
    while len(out) - 1 < lh:
        out.append(b + 1 if out[-1] == b else b)
    return tuple(out)


def rsos_of(p: int, p_prime: int, a: int, b: int, heights) -> tuple:
    """Validate and canonicalize a height sequence (tail may be partial):
    the fields (p, p', a, b, stored heights) of the path.
    """
    if not 1 < p < p_prime or gcd(p, p_prime) != 1:
        raise InvalidPathError(f"need coprime 1 < p < p', got ({p}, {p_prime})")
    hs = [int(h) for h in heights]
    if not hs:
        raise InvalidPathError("height sequence is empty")
    if hs[0] != a:
        raise InvalidPathError(f"path must start at a={a}, got {hs[0]}")
    if not 1 <= b <= p_prime - 2:
        raise InvalidPathError(f"tail height b={b} out of range")
    for x, h in enumerate(hs):
        if not 1 <= h <= p_prime - 1:
            raise InvalidPathError(f"height {h} at position {x} out of range")
        if x and abs(h - hs[x - 1]) != 1:
            raise InvalidPathError(f"step at position {x} is not a unit step")
    if hs[-1] not in (b, b + 1):
        raise InvalidPathError(
            f"stored sequence must end inside the tail band, got {hs[-1]}"
        )
    return p, p_prime, a, b, canonical(hs, b)


def _one_more(stored: tuple[int, ...], b: int) -> list[int]:
    """The stored heights and the tail height just past the horizon."""
    return [*stored, b + 1 if stored[-1] == b else b]


def rsos_scan(p: int, p_prime: int, a: int, b: int,
              stored: tuple[int, ...]) -> tuple[int, tuple[int, ...], int]:
    """One pass over the vertices 1..L of a path's stored heights, given
    its fields: the weight, the positions of the scoring vertices and the
    number of scoring peaks.  Every vertex's labels are checked, scoring or
    not.
    """
    dark = rsos.dark_floors(p, p_prime)
    hs = _one_more(stored, b)
    total = 0
    scoring = []
    peaks = 0
    for x in range(1, len(stored)):
        prev, h, nxt = hs[x - 1], hs[x], hs[x + 1]
        label = _label(a, x, prev, h)
        if _scores(dark, prev, h, nxt):
            total += label
            scoring.append(x)
            if nxt == prev < h:
                peaks += 1
    return total, tuple(scoring), peaks


def find_violation(t2: int, a2: int, b2: int, doubled) -> str | None:
    """First constraint violation of a doubled height sequence, or None."""
    hs = list(doubled)
    if t2 < 4:
        return f"need T = 2t >= 4, got {t2}"
    if a2 % 2 or b2 % 2:
        return f"start A={a2} and tail B={b2} must be even (integer heights)"
    if not hs:
        return "height sequence is empty"
    if hs[0] != a2:
        return f"path must start at A={a2}, got {hs[0]}"
    if not 2 <= b2 < t2:
        return f"tail height B={b2} out of range 2..{t2 - 1}"
    # one pass: a height out of range or a bad step is reported at once; a
    # valley at a non-integer (odd doubled) height only once the whole line
    # has passed, so either of the others wins over it.  H_{-1} = A + 1.
    valley = None
    before, prev = a2 + 1, None
    for i, h in enumerate(hs):
        if not 2 <= h <= t2:
            return f"height {h} at doubled position {i} out of range 2..{t2}"
        if i:
            if abs(h - prev) != 1:
                return f"step at doubled position {i} is not a half-unit step"
            if valley is None and before == h == prev + 1 and prev % 2 == 1:
                valley = f"valley at non-integer height {prev}/2 (doubled position {i - 1})"
            before = prev
        prev = h
    if valley is not None:
        return valley
    if hs[-1] not in (b2, b2 + 1):
        return f"stored sequence must end inside the tail band, got {hs[-1]}"
    return None


def half_of(t2: int, a2: int, b2: int, doubled) -> tuple:
    """The fields (T, A, B, stored doubled heights) of the path."""
    violation = find_violation(t2, a2, b2, doubled)
    if violation is not None:
        raise InvalidHalfPathError(violation)
    return t2, a2, b2, canonical(list(doubled), b2)


def half_scan(t2: int, a2: int, b2: int, stored: tuple[int, ...]) -> tuple:
    """One pass over the doubled positions 0..L of a path's stored heights,
    given its fields, position 0 read against H(-1) = A + 1: the weight,
    the number of straight vertices and the positions of the peaks and of
    the valleys.
    """
    hs = _one_more(stored, b2)
    quarters = straights = 0
    peaks = []
    valleys = []
    before = a2 + 1
    for i, h, after in zip(range(len(stored)), hs, hs[1:]):
        if before != after:
            quarters += i
            straights += 1
        else:
            (peaks if h > after else valleys).append(i)
        before = h
    gs_q = halfpath._ground_quarters(t2, a2, b2)
    return (halfpath._whole_units(quarters - gs_q, t2, a2, b2), straights, tuple(peaks),
            tuple(valleys))


def ground_state(t2: int, a2: int, b2: int) -> HalfPath:
    """The straight staircase from A to B followed by the tail."""
    step = 1 if b2 >= a2 else -1
    return HalfPath.of(t2, a2, b2, range(a2, b2 + step, step))


def straight_positions(path: HalfPath) -> list[int]:
    """Doubled positions 0..L of the straight vertices, position 0 read
    against the virtual H(-1) = A + 1.  Tail vertices past L are peaks and
    valleys, so the list is complete.
    """
    hs = path.padded(path.horizon + 1) + [path.a2 + 1]  # index -1 reads H(-1)
    return [i for i in range(path.horizon + 1) if hs[i - 1] != hs[i + 1]]


def raw_weight_quarters(path: HalfPath) -> int:
    """Sum of doubled positions of straight vertices, in quarter-units."""
    return sum(straight_positions(path))


def weight_edgewise(path: RsosPath) -> int:
    """Equivalent edge-based weight: for each position x, count the scoring
    vertices strictly to its right whose class matches the edge into x.
    """
    rsos._require_finite(path)
    info = classify(path)
    horizon = path.horizon
    up_suffix = [0] * (horizon + 2)
    down_suffix = [0] * (horizon + 2)
    for v in reversed(info):
        up_suffix[v.x] = up_suffix[v.x + 1] + (1 if v.scoring and v.up else 0)
        down_suffix[v.x] = down_suffix[v.x + 1] + (1 if v.scoring and not v.up else 0)
    total = 0
    for x in range(1, horizon + 1):
        if path.heights[x] < path.heights[x - 1]:  # SE edge into x
            total += up_suffix[x + 1] if x + 1 <= horizon else 0
        else:
            total += down_suffix[x + 1] if x + 1 <= horizon else 0
    return total


def weight_extended(path: HalfPath) -> int:
    """Weight computed from the leftward extension trick.

    The path is extended 2e doubled steps to the left (e = |a-b|) so it
    starts at B, with the start convention moved to the extension origin;
    the weight is then the plain quarter-unit sum over straight vertices of
    the extended path, divided by four.
    """
    a2, b2 = path.a2, path.b2
    ext = abs(a2 - b2)
    if ext == 0:
        total = raw_weight_quarters(path)
    else:
        sign = 1 if a2 > b2 else -1

        def height(i: int) -> int:
            if i < -ext:
                return b2 + 1  # start convention at the extension origin
            if i < 0:
                return b2 + sign * (i + ext)
            return path.height(i)

        total = 0
        for i in range(-ext, path.horizon + 1):
            if height(i - 1) != height(i + 1):
                total += i
    if total % 4 != 0:
        raise AssertionError(f"extended quarter-unit sum {total} not divisible by 4")
    return total // 4


def dissect_reference(path: HalfPath) -> Dissection:
    """Assign a charge and baseline to every stored peak (reference scan)."""
    if path.a2 != 2 or path.b2 != 2:
        raise ValueError("dissection is defined on paths from height 1 to height 1")
    t2 = path.t2
    reach = path.horizon + 2 * t2 + 4  # how far a baseline may run into the tail
    H = path.padded(reach)
    peaks = [i for i in range(1, path.horizon) if H[i - 1] < H[i] > H[i + 1]]
    # position 0 is always a valley: H(-1) = 3 (virtual) and H(1) = 3 lie above it
    live = [0] + [i for i in range(1, path.horizon + 1) if H[i - 1] > H[i] < H[i + 1]]
    assigned: dict[int, Particle] = {}

    def far_side_stop(peak: int, identified: int, base_h: int) -> int:
        step = 1 if identified < peak else -1
        z = peak + step
        while 0 <= z:
            if H[z] == base_h:
                return z
            z += step
            if z > reach:
                raise AssertionError("baseline ran past the tail without closing")
        raise AssertionError("baseline ran off the left wall")

    waiting = peaks[::-1]  # right to left
    for charge2 in range(1, t2 - 1):
        still = []
        for peak in waiting:
            i = bisect_left(live, peak)
            hits_right = i < len(live) and H[peak] - H[live[i]] == charge2
            hits_left = i > 0 and H[peak] - H[live[i - 1]] == charge2
            if not hits_left and not hits_right:
                still.append(peak)
                continue
            identified = live.pop(i if hits_right else i - 1)  # ties go to the right
            base_h = H[peak] - charge2
            if charge2 == 1:
                origin, end = peak - 1, peak + 1
            else:
                stop = far_side_stop(peak, identified, base_h)
                origin, end = min(identified, stop), max(identified, stop)
            assigned[peak] = Particle(peak, charge2, origin, base_h, end - origin)
        waiting = still

    if waiting:
        raise AssertionError(f"peaks without a charge after the scan: {waiting[::-1]}")
    sector = [0] * (t2 - 3)
    for part in assigned.values():
        if part.charge2 >= 2:
            sector[part.charge2 - 2] += 1
    particles = tuple(assigned[pk] for pk in peaks)
    return Dissection(path, particles, tuple(sector))


def _shifted_sum(terms, order: int) -> QSeries:
    """sum q^e * term over the (e, term) pairs, through q^order; each term
    need only be known through q^(order - e).
    """
    coeffs = [0] * (order + 1)
    for e, term in terms:
        for k, c in enumerate(term.coeffs):
            coeffs[e + k] += c
    return QSeries(order, tuple(coeffs))


def fermionic_sum_2_5_reference(order: int) -> QSeries:
    """sum_n q^(n^2) / (q)_n, one term at a time."""
    def terms():
        n = 0
        while n * n <= order:
            yield n * n, _factor_product((), range(1, n + 1), order - n * n)
            n += 1

    return _shifted_sum(terms(), order)


def fermionic_sum_3_7_reference(order: int) -> QSeries:
    """sum q^((n1+n2)^2 + 2 n2^2) / ((q)_{n1} (q)_{2 n2}), one term at a time."""
    def terms():
        n2 = 0
        while 2 * n2 * n2 <= order:
            n1 = 0
            while (e := (n1 + n2) ** 2 + 2 * n2 * n2) <= order:
                yield e, _factor_product((), [*range(1, n1 + 1), *range(1, 2 * n2 + 1)],
                                        order - e)
                n1 += 1
            n2 += 1

    return _shifted_sum(terms(), order)


def fermionic_sum_4_7_reference(order: int) -> QSeries:
    """sum q^((n1+2n2)^2 + 2 n2^2) [n1+2n2, n1]_q / (q)_{2n1+4n2}, one term
    at a time.
    """
    def terms():
        n2 = 0
        while 6 * n2 * n2 <= order:
            n1 = 0
            while (e := (n1 + 2 * n2) ** 2 + 2 * n2 * n2) <= order:
                yield e, _factor_product(
                    range(2 * n2 + 1, 2 * n2 + n1 + 1),  # [n1 + 2 n2, n1]_q over (q)_{n1}
                    [*range(1, n1 + 1), *range(1, 2 * n1 + 4 * n2 + 1)],
                    order - e,
                )
                n1 += 1
            n2 += 1

    return _shifted_sum(terms(), order)


def fermionic_term(t2: int, n: tuple[int, ...], order: int) -> QSeries:
    """(q)_{m_1}^-1 prod_{j=2..T-3} [n_j + m_j, n_j]_q for occupation vector n.

    Built by factor passes on one coefficient list: divide by (1 - q^i) for
    i <= m_1; for each j and i <= n_j, multiply by (1 - q^(m_j + i)) and
    divide by (1 - q^i).
    """
    ms = m_vector(t2, n)
    up, down = [], list(range(1, ms[0] + 1))
    for j in range(2, t2 - 2):
        nj, mj = n[j - 2], ms[j - 1]
        up += range(mj + 1, mj + nj + 1)
        down += range(1, nj + 1)
    return _factor_product(up, down, order)


def pair_runs(positions: list[int]) -> list[tuple[int, int]]:
    """Pair consecutive positions left to right inside each maximal run, a
    leftover single at a run's right end unpaired: the run-by-run loop the
    bijections used before pairing took one pass.
    """
    pairs = []
    i = 0
    while i < len(positions):
        j = i
        while j + 1 < len(positions) and positions[j + 1] == positions[j] + 1:
            j += 1
        run = positions[i : j + 1]
        for k in range(0, len(run) - 1, 2):
            pairs.append((run[k], run[k + 1]))
        i = j + 1
    return pairs


# The bijection domains as each map checked them by hand before
# `halfpath.theorem1_domain` bounded them all: an RSOS label (p, p', a, b)
# for the forward maps, a half label (T, A, B) for the inverses.
BIJECTION_DOMAINS = {
    "bij1_forward": lambda p, pp, a, b: (pp == 2 * p + 1 and a % 2 == 0 and b % 2 == 0
                                         and 1 < a <= 2 * p and 1 < b < 2 * p),
    "bij1_inverse": lambda t2, a, b: t2 % 2 == 0 and 1 < a <= t2 and 1 < b < t2,
    "bij2_forward": lambda p, pp, a, b: (pp == 2 * p - 1 and p >= 3 and a % 2 == 0
                                         and (b + 1) % 2 == 0 and 1 < a < pp
                                         and 1 < b + 1 < pp),
    "bij2_inverse": lambda t2, a, b: t2 % 2 == 1 and 1 < a < t2 and 1 < b < t2,
}


def theorem1_label_reference(t2: int, a_hat: int, b_hat: int) -> CharacterLabel:
    """The character label of H^t_{a,b}: (t, 2t+1, b, 2a) for even T = 2t,
    ((T+1)/2, T, a, 2b) for odd T.
    """
    if t2 % 2 == 0:
        return CharacterLabel(t2 // 2, t2 + 1, b_hat, 2 * a_hat)
    return CharacterLabel((t2 + 1) // 2, t2, a_hat, 2 * b_hat)


def rsos_leave(p_prime: int, a: int, b: int, max_weight: int, x: int) -> int:
    """The least cost of leaving the tail band of an RSOS label at position
    x or later and coming back: the lesser of the exit up, open when the
    band b+2 lies in the strip, and the exit down, open when b >= 2, or
    max_weight + 1, which prunes every run, when neither is open.
    """
    opts = [(x + b + 4 - a) // 2 + (x - b + a) // 2] if b + 2 <= p_prime - 1 else []
    opts += [(x + a - b + 3) // 2 + (x + b - a + 1) // 2] if b >= 2 else []
    return min(opts, default=max_weight + 1)


def _at(form: tuple, x: int) -> int:
    f, k, d, c = form
    return f * ((x + k) // d) + c


def search_states(m) -> list[dict]:
    """The states `lattice.search` keeps live on the model m, one dict per
    position, each live state's code (4h + 2 when entered from above + 1 in
    a run, ~start at the start) mapped to its least reach cost, its
    junction cost (None where it cannot end a path) and its surviving steps
    (vertex cost, child code).  A step survives when its reach cost plus the
    bound of its child, the larger of the child's height bound and, in a
    run, `leave`, stays within the budget.
    """
    band = (m.b, m.b + 1)
    layers, reach, x = [], {~m.start: (None, m.start, False, 0)}, 0
    while reach:
        layer, nxt = {}, {}
        for code, (prev, h, run, w) in reach.items():
            tail = (m.b + 1 if h == m.b else m.b) if h in band and not run else None
            junction, steps = None, []
            for nh in (h - 1, h + 1):
                form = (0, 0, 1, 0) if prev is None else m.step(prev, h, nh)
                if not m.lo <= nh <= m.hi or form is None:
                    continue
                if nh == tail and x % 2 == 0:
                    junction = _at(form, x)
                nrun = prev in band and h in band and nh in band
                e = w + _at(form, x)
                if e + max(_at(m.bounds[nh], x + 1), _at(m.leave, x + 1) if nrun else 0) > m.budget:
                    continue
                child = 4 * nh + 2 * (nh < h) + nrun
                steps.append((e - w, child))
                if child not in nxt or e < nxt[child][3]:
                    nxt[child] = (h, nh, nrun, e)
            layer[code] = (w, junction, steps)
        layers.append(layer)
        reach, x = nxt, x + 1
    return layers
