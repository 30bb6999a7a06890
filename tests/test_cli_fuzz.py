"""Seeded CLI fuzz: garbled path lines and small random flag values only ever
end in a documented exit code (0 success, 1 verification failure, 2 invalid
input, 3 corrupted bijection input), never in an exception out of `main`.
"""

import io
import random

import pytest

from viracomb.cli import main

from data_paths import DISSECT_10, HALF_7_IMAGE, HALF_10, RSOS_47, RSOS_49

EXIT_CODES = {0, 1, 2, 3}


def _rsos(data):
    p, pp, a, b, hs = data
    return ["rsos", f"p={p}", f"pp={pp}", f"a={a}", f"b={b}", "h=" + ",".join(map(str, hs))]


def _half(data):
    t2, a2, b2, hs = data
    return ["half", f"T={t2}", f"A={a2}", f"B={b2}", "H=" + ",".join(map(str, hs))]


SEEDS = [
    _rsos(RSOS_49),
    _rsos(RSOS_47),
    _rsos((4, 9, 8, 6, [8, 7, 6])),
    _rsos((2, 5, 1, 1, [1, 2, 1])),
    _half(HALF_7_IMAGE),
    _half(HALF_10),
    _half(DISSECT_10),
    _half((8, 2, 2, [2, 3, 4, 5, 4, 5, 4, 3, 2])),
    _half((7, 2, 6, [2, 3, 4, 5, 4, 5, 4, 5, 6])),
    _half((8, 6, 8, [6, 7, 8])),  # a tail band leaving the strip
]

LINE_COMMANDS = [
    ["bijection", "forward"],
    ["bijection", "forward", "--trace"],
    ["bijection", "inverse"],
    ["render"],
    ["render", "--baselines"],
    ["render", "--format", "svg"],
    ["render", "--format", "svg", "--baselines"],
    ["dissect"],
]


def _garble(rnd: random.Random, fields: list[str]) -> str:
    fields = list(fields)
    key, _, values = fields[-1].partition("=")
    hs = values.split(",")
    how = rnd.choice(("drop", "duplicate", "shift", "kind", "cut", "extend"))
    if how == "drop":
        del hs[rnd.randrange(len(hs))]
    elif how == "duplicate":
        i = rnd.randrange(len(hs))
        hs.insert(i, hs[i])
    elif how == "shift":
        i = rnd.randrange(1, len(fields) - 1)
        name, _, value = fields[i].partition("=")
        fields[i] = f"{name}={int(value) + rnd.choice((-2, -1, 1, 2))}"
    elif how == "kind":
        fields[0] = "half" if fields[0] == "rsos" else "rsos"
    elif how == "extend":
        last = int(hs[-1])
        for _ in range(rnd.randint(1, 6)):
            last += rnd.choice((-1, 1))
            hs.append(str(last))
    fields[-1] = f"{key}={','.join(hs)}"
    line = " ".join(fields)
    if how == "cut":
        line = line[: rnd.randrange(len(line))]
    return line


def _flag_set(rnd: random.Random) -> list[str]:
    # values go in as --flag=value, so that argparse reads "-1,0" as a value
    def small(lo=-2, hi=12):
        return str(rnd.randint(lo, hi))

    kind = rnd.randrange(6)
    if kind == 0:
        return ["character", "bosonic", *(small(-1, 9) for _ in range(4)),
                f"--order={small(-2, 20)}"]
    if kind == 1:
        return ["character", rnd.choice(("fermionic", "product")), f"--t2={small(-2, 12)}",
                f"--mod={small(-2, 9)}", f"--res={small(-2, 8)},{small(-2, 8)}",
                f"--order={small(-2, 20)}"]
    if kind == 2:
        gf = ["--gf"] if rnd.random() < 0.5 else []
        if rnd.random() < 0.5:
            return ["paths", "rsos", *(small(-1, 9) for _ in range(4)),
                    f"--max-weight={small(-2, 6)}", *gf]
        return ["paths", "half", f"--t2={small(-2, 10)}", f"--A={small(-2, 10)}",
                f"--B={small(-2, 10)}", f"--max-weight={small(-2, 6)}", *gf]
    if kind == 3:
        n = ",".join(small(-1, 2) for _ in range(rnd.randint(0, 8)))
        return ["sector-gf", f"--t2={small(-1, 10)}", f"--n={n}", f"--order={small(-2, 12)}"]
    suite = rnd.choice(("theorem2", "products", "symmetries"))
    return ["verify", suite, f"--order={small(-2, 8)}", f"--max-t2={small(-2, 6)}",
            "--workers=1"]


def _exit_code(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    try:
        code = main(argv)
    except (Exception, SystemExit) as exc:
        pytest.fail(f"{argv} on {stdin!r} raised {type(exc).__name__}: {exc}")
    capsys.readouterr()
    return code


def test_garbled_path_lines_exit_cleanly(capsys, monkeypatch):
    rnd = random.Random(20261018)
    codes = set()
    for _ in range(600):
        line = _garble(rnd, rnd.choice(SEEDS))
        argv = rnd.choice(LINE_COMMANDS)
        code = _exit_code(capsys, monkeypatch, argv, line + "\n")
        assert code in EXIT_CODES, (argv, line, code)
        codes.add(code)
    assert {0, 2} <= codes  # some garbles stay valid paths, most do not


def test_random_flags_exit_cleanly(capsys, monkeypatch):
    rnd = random.Random(1018)
    codes = set()
    for _ in range(200):
        argv = _flag_set(rnd)
        code = _exit_code(capsys, monkeypatch, argv)
        assert code in EXIT_CODES, (argv, code)
        codes.add(code)
    assert {0, 2} <= codes
