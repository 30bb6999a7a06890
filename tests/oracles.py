"""Independent weight formulas that the tests hold the program's weights to.

Each computes a path's weight by a route other than the one `rsos.weight` or
`halfpath.weight` takes, so an agreement on many paths checks both.  The
program itself never needs them.
"""

from viracomb import rsos
from viracomb.halfpath import HalfPath, raw_weight_quarters
from viracomb.rsos import RsosPath


def weight_edgewise(path: RsosPath) -> int:
    """Equivalent edge-based weight: for each position x, count the scoring
    vertices strictly to its right whose class matches the edge into x.
    """
    rsos._require_finite(path)
    info = rsos.classify(path)
    horizon = path.horizon
    up_suffix = [0] * (horizon + 2)
    down_suffix = [0] * (horizon + 2)
    for v in reversed(info):
        up_suffix[v.x] = up_suffix[v.x + 1] + (1 if v.scoring and v.up else 0)
        down_suffix[v.x] = down_suffix[v.x + 1] + (1 if v.scoring and not v.up else 0)
    total = 0
    for x in range(1, horizon + 1):
        if path.height(x) < path.height(x - 1):  # SE edge into x
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
