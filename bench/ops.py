"""Run one benchmark input through the program and check the result.

Every comparison here is an explicit test, never an ``assert``: under
``python -O`` the program's own asserts vanish, and these checks must still
catch a wrong result.  An input's outcome counts the operations attempted,
those that raised and those that returned a wrong result; the first
failure keeps the offending input and, for series, the first mismatching
power.

The program is reached only through module attributes (``rsos.weight``,
``RsosPath.of``), so the tracer can wrap them after this module is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass

from viracomb import bijections, characters, halfpath, particles, qseries, rsos

import gen


@dataclass
class Outcome:
    attempted: int = 0
    raised: int = 0
    wrong: int = 0
    first_failure: dict | None = None

    @property
    def failed(self) -> int:
        return self.raised + self.wrong

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, wrong: bool, **info) -> None:
        self.attempted += 1
        if wrong:
            self.wrong += 1
        else:
            self.raised += 1
        if self.first_failure is None:
            self.first_failure = {"kind": "wrong result" if wrong else "raised", **info}

    def error(self, stage: str, where: str, exc: Exception) -> None:
        self.fail(False, stage=stage, input=where, error=f"{type(exc).__name__}: {exc}")


def series_mismatch(lhs, rhs, order: int) -> dict | None:
    """None when both series are known exactly through q^order and agree,
    otherwise what differs first.
    """
    for side, s in (("lhs", lhs), ("rhs", rhs)):
        if not isinstance(s, qseries.QSeries):
            return {"reason": f"{side} is a {type(s).__name__}, not a series"}
        if s.order != order or len(s.coeffs) != order + 1:
            return {"reason": f"{side} has order {s.order} with {len(s.coeffs)} "
                              f"coefficients, expected order {order}"}
    for k in range(order + 1):
        if lhs.coeffs[k] != rhs.coeffs[k]:
            return {"reason": "coefficients differ", "power": k,
                    "lhs": lhs.coeffs[k], "rhs": rhs.coeffs[k]}
    return None


def _bosonic(label: tuple[int, int, int, int], order: int):
    return characters.bosonic_character(characters.CharacterLabel(*label), order)


def _check_series(out: Outcome, stage: str, where: str, compute) -> None:
    try:
        lhs, rhs, order = compute()
    except Exception as exc:  # a raising check is a failed operation, not a crash
        out.error(stage, where, exc)
        return
    bad = series_mismatch(lhs, rhs, order)
    if bad is None:
        out.ok()
    else:
        out.fail(True, stage=stage, input=where, **bad)


# -- theorem1-gf -------------------------------------------------------------


def run_theorem1(op: tuple, out: Outcome) -> None:
    kind, args, n = op
    if kind == "rsos":
        p, pp, a, b = args
        where = f"X p={p} pp={pp} a={a} b={b} N={n}"
        _check_series(out, "theorem1 rsos", where, lambda: (
            rsos.generating_function(p, pp, a, b, n),
            _bosonic((p, pp, gen.band_index(p, pp, b), a), n), n))
    else:
        t2, a2, b2 = args
        where = f"Y T={t2} A={a2} B={b2} N={n}"
        _check_series(out, "theorem1 half", where, lambda: (
            halfpath.generating_function(t2, a2, b2, n),
            _bosonic(gen.theorem1_character(t2, a2, b2), n), n))


# -- character-series --------------------------------------------------------

_CLOSED = {
    "M(2,5)": lambda n: characters.fermionic_sum_2_5(n),
    "M(3,7)": lambda n: characters.fermionic_sum_3_7(n),
    "M(4,7)": lambda n: characters.fermionic_sum_4_7(n),
}


def _run_symmetry(label: tuple[int, int, int, int], n: int, out: Outcome) -> None:
    """The program's own symmetry report must pass, and the index reflection
    (r, s) -> (p-r, p'-s) is compared here as well, coefficient by coefficient.
    """
    p, pp, r, s = label
    where = f"chi p={p} pp={pp} r={r} s={s} N={n}"
    try:
        rep = characters.verify_symmetries(characters.CharacterLabel(*label), n)
    except Exception as exc:
        out.error("symmetry", where, exc)
        return
    if rep.ok is not True or rep.order != n:
        out.fail(True, stage="symmetry", input=where, report=repr(rep))
        return
    _check_series(out, "symmetry", where, lambda: (
        _bosonic(label, n), _bosonic((p, pp, p - r, pp - s), n), n))


def run_series(op: tuple, out: Outcome) -> None:
    kind, args, n = op
    if kind == "theorem2":
        (t2,) = args
        _check_series(out, "theorem2", f"fermionic T={t2} N={n}", lambda: (
            characters.fermionic_character_12(t2, n),
            _bosonic(gen.theorem1_character(t2, 2, 2), n), n))
    elif kind == "closed":
        (name,) = args
        _check_series(out, "closed form", f"closed {name} N={n}", lambda: (
            _CLOSED[name](n), _bosonic(gen.CLOSED_FORMS[name], n), n))
    elif kind == "product":
        (name,) = args
        modulus, residues, label = gen.PRODUCTS[name]
        _check_series(out, "product", f"product {name} N={n}", lambda: (
            qseries.modular_product(modulus, residues, n), _bosonic(label, n), n))
    else:
        _run_symmetry(args, n, out)


# -- bijection-fuzz ----------------------------------------------------------


def _maps(family: int):
    if family == 1:
        return bijections.bij1_forward, bijections.bij1_inverse
    return bijections.bij2_forward, bijections.bij2_inverse


def run_fuzz(op: tuple, out: Outcome) -> None:
    """RSOS lines go forward then back; half-path lines go inverse then
    forward.  Either way the line must come back byte-identical and the
    weight must agree at every step.
    """
    kind, family, line = op
    forward, inverse = _maps(family)
    stage = "parse"
    try:
        if kind == "rsos":
            path = rsos.RsosPath.from_line(line)
            printed = path.to_line()
            stage = "forward"
            image, _ = forward(path)
            stage = "inverse"
            back = inverse(image)
            stage = "weigh"
            weights = (rsos.weight(path), halfpath.weight(image), rsos.weight(back))
        else:
            path = halfpath.HalfPath.from_line(line)
            printed = path.to_line()
            stage = "inverse"
            image = inverse(path)
            stage = "forward"
            back, _ = forward(image)
            stage = "weigh"
            weights = (halfpath.weight(path), rsos.weight(image), halfpath.weight(back))
        stage = "print"
        back_line = back.to_line()
    except Exception as exc:
        out.error(f"bij{family} {stage}", line, exc)
        return
    if printed != line:
        out.fail(True, stage=f"bij{family} parse", input=line, got=printed)
    elif back_line != line:
        out.fail(True, stage=f"bij{family} round trip", input=line, got=back_line)
    elif not weights[0] == weights[1] == weights[2]:
        out.fail(True, stage=f"bij{family} weight", input=line, weights=list(weights))
    else:
        out.ok()


# -- particle-moves ----------------------------------------------------------


def run_moves(op: tuple, out: Outcome) -> None:
    """Every listed move is applied; each result must weigh exactly one more
    and dissect into the same sector.  A path whose dissection or move list
    raises counts as one failed operation.
    """
    _, _, line = op
    try:
        path = halfpath.HalfPath.from_line(line)
        weight = halfpath.weight(path)
        sector = particles.dissect(path).sector
        moves = particles.enumerate_moves(path)
    except Exception as exc:
        out.error("dissect", line, exc)
        return
    for move in moves:
        where = f"{line} move peak={move.particle.peak} owner={move.owner.peak}"
        try:
            new = particles.apply_move(path, move)
            got = (halfpath.weight(new), particles.dissect(new).sector)
        except Exception as exc:
            out.error("apply_move", where, exc)
            continue
        if got != (weight + 1, sector):
            out.fail(True, stage="apply_move", input=where, got=list(got),
                     expected=[weight + 1, list(sector)], output=new.to_line())
        else:
            out.ok()


# name -> (round generator, runner, what one operation is)
WORKLOADS = {
    "theorem1-gf": (gen.theorem1_round, run_theorem1, "identity check"),
    "character-series": (gen.series_round, run_series, "identity check"),
    "bijection-fuzz": (gen.fuzz_round, run_fuzz, "path round trip"),
    "particle-moves": (gen.moves_round, run_moves, "particle move"),
}
