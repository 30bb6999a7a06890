import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from viracomb import bijections, cli, particles, rsos, verify
from viracomb.cli import main
from viracomb.qseries import QSeries
from viracomb.rsos import InfiniteWeightError, RsosPath

from data_paths import HALF_7_IMAGE, MINIMAL_10, RSOS_47, RSOS_49

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def rsos_line(data):
    p, pp, a, b, hs = data
    return f"rsos p={p} pp={pp} a={a} b={b} h=" + ",".join(map(str, hs))


def test_character_bosonic(capsys):
    code, out, _ = run(capsys, ["character", "bosonic", "2", "5", "1", "2",
                                "--order", "8"])
    assert code == 0
    assert out.strip() == "1,1,1,1,2,2,3,3,4"


def test_character_fermionic_and_product_agree(capsys):
    code, ferm, _ = run(capsys, ["character", "fermionic", "--t2", "4",
                                 "--order", "8"])
    assert code == 0
    code, prod, _ = run(capsys, ["character", "product", "--mod", "5",
                                 "--res", "1,4", "--order", "8"])
    assert code == 0
    assert ferm == prod


def test_character_fermionic_large_t2(capsys):
    # charges above the top one an order allows stay empty, so T = 1000 does
    # not take one frame per charge
    code, out, err = run(capsys, ["character", "fermionic", "--t2", "1000",
                                  "--order", "3"])
    assert code == 0, err
    from viracomb.characters import bosonic_character, theorem1_label

    assert out.strip() == bosonic_character(theorem1_label(1000, 1, 1), 3).to_csv()


def test_character_pretty(capsys):
    code, out, _ = run(capsys, ["character", "bosonic", "2", "5", "1", "2",
                                "--order", "3", "--format", "pretty"])
    assert code == 0
    assert out.strip() == "1 + q + q^2 + q^3"


def test_character_invalid_label_exit_2(capsys):
    code, _, err = run(capsys, ["character", "bosonic", "4", "2", "1", "1",
                                "--order", "5"])
    assert code == 2
    assert "error" in err


def test_paths_rsos_gf(capsys):
    code, out, _ = run(capsys, ["paths", "rsos", "4", "9", "8", "6",
                                "--max-weight", "3", "--gf"])
    assert code == 0
    assert out.strip() == "1,0,1,1"


def test_paths_half_ground_state(capsys):
    code, out, _ = run(capsys, ["paths", "half", "--t2", "4", "--A", "2",
                                "--B", "2", "--max-weight", "0"])
    assert code == 0
    assert out.strip() == "half T=4 A=2 B=2 H=2"


def test_paths_half_gf(capsys):
    code, out, _ = run(capsys, ["paths", "half", "--t2", "10", "--A", "4",
                                "--B", "8", "--max-weight", "2", "--gf"])
    assert code == 0
    from viracomb.characters import CharacterLabel, bosonic_character

    assert out.strip() == bosonic_character(CharacterLabel(5, 11, 4, 4), 2).to_csv()


def test_paths_listing_parses_back(capsys):
    code, out, _ = run(capsys, ["paths", "rsos", "2", "5", "2", "2",
                                "--max-weight", "2"])
    assert code == 0
    from viracomb.rsos import RsosPath

    lines = out.strip().splitlines()
    assert len(lines) == 3  # weights 0, 1, 2 each carry one path
    for line in lines:
        assert RsosPath.from_line(line).to_line() == line


@pytest.mark.parametrize("model", [["rsos", "5", "11", "8", "2"],
                                   ["half", "--t2", "8", "--A", "2", "--B", "2"]])
def test_paths_gf_counts_the_listed_lines(capsys, model):
    # --gf counts without listing; the lines the listing prints, parsed back
    # and weighed one by one, must give the same series
    from viracomb import halfpath, rsos

    cls, weight = {"rsos": (rsos.RsosPath, rsos.weight),
                   "half": (halfpath.HalfPath, halfpath.weight)}[model[0]]
    code, gf, _ = run(capsys, ["paths", *model, "--max-weight", "12", "--gf"])
    assert code == 0
    code, out, _ = run(capsys, ["paths", *model, "--max-weight", "12"])
    assert code == 0
    counts = [0] * 13
    for line in out.splitlines():
        counts[weight(cls.from_line(line))] += 1
    assert sum(counts) > 100
    assert gf.strip() == ",".join(map(str, counts))


def test_paths_invalid_exit_2(capsys):
    code, _, err = run(capsys, ["paths", "rsos", "4", "9", "8", "5",
                                "--max-weight", "2"])
    assert code == 2 and "error" in err


def test_paths_of_a_label_that_is_no_model_exit_2(capsys):
    # (3, 6) and (1, 5) are no minimal models: the label is refused first,
    # not the tail band as light, listing or counting alike
    for p, pp, a, b, gf in (("3", "6", "2", "1", []), ("1", "5", "1", "1", ["--gf"]),
                            ("3", "6", "2", "2", [])):
        code, out, err = run(capsys, ["paths", "rsos", p, pp, a, b, "--max-weight", "3", *gf])
        assert (code, out, err) == (2, "", f"error: need coprime 1 < p < p', got ({p}, {pp})\n")


def test_paths_negative_max_weight_exit_2(capsys):
    # the listing must not print nothing and exit 0; --gf keeps its message
    for model in (["rsos", "5", "11", "8", "2"], ["half", "--t2", "8", "--A", "2", "--B", "2"]):
        code, out, err = run(capsys, ["paths", *model, "--max-weight", "-1"])
        assert (code, out, err) == (2, "", "error: max weight must be nonnegative, got -1\n")
        code, out, err = run(capsys, ["paths", *model, "--max-weight", "-1", "--gf"])
        assert (code, out, err) == (2, "", "error: order must be nonnegative, got -1\n")


def test_out_of_memory_exit_2(capsys, monkeypatch):
    # an --order or --max-weight too large to allocate is bad input, not a
    # failed verification; the command raises at once, so nothing large is built
    def cmd(args):
        raise MemoryError

    for name, argv in (("cmd_character", ["character", "bosonic", "2", "5", "1", "2",
                                          "--order", "400000000"]),
                       ("cmd_paths", ["paths", "rsos", "5", "11", "8", "2",
                                      "--max-weight", "400000000", "--gf"])):
        monkeypatch.setattr(cli, name, cmd)
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: out of memory; try a smaller --order or --max-weight\n"


def test_bijection_forward_trace(capsys, monkeypatch):
    code, out, _ = run(capsys, ["bijection", "forward", "--trace"],
                       stdin=rsos_line(RSOS_49) + "\n", monkeypatch=monkeypatch)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("half T=8 A=8 B=6")
    trace = json.loads(lines[1])
    assert trace["lam"] == [9, 8, 5, 1]
    assert trace["mu"] == [13, 11, 7, 2]


def test_bijection_roundtrip_bytes(capsys, monkeypatch):
    code, fwd, _ = run(capsys, ["bijection", "forward"],
                       stdin=rsos_line(RSOS_47) + "\n", monkeypatch=monkeypatch)
    assert code == 0
    code, back, _ = run(capsys, ["bijection", "inverse"], stdin=fwd,
                        monkeypatch=monkeypatch)
    assert code == 0
    canonical = rsos_line((4, 7, 6, 1, RSOS_47[4][:33]))
    assert back.strip() == canonical


def test_bijection_inverse_golden(capsys, monkeypatch):
    t2, a2, b2, hs = HALF_7_IMAGE
    line = f"half T={t2} A={a2} B={b2} H=" + ",".join(map(str, hs))
    code, out, _ = run(capsys, ["bijection", "inverse"], stdin=line + "\n",
                       monkeypatch=monkeypatch)
    assert code == 0
    assert out.strip() == rsos_line((4, 7, 6, 1, RSOS_47[4][:33]))


def test_bijection_family_error_exit_2(capsys, monkeypatch):
    code, _, err = run(capsys, ["bijection", "forward"],
                       stdin="rsos p=3 pp=4 a=2 b=2 h=2\n", monkeypatch=monkeypatch)
    assert code == 2 and "error" in err


def test_bijection_repeated_field_exit_2(capsys, monkeypatch):
    code, out, err = run(capsys, ["bijection", "inverse"],
                         stdin="half T=4 A=2 B=2 H=2 T=6\n", monkeypatch=monkeypatch)
    assert code == 2 and out == "" and "repeated field 'T'" in err


def test_bijection_broken_invariant_exit_4(capsys, monkeypatch):
    # a stage helper that inserts its notches one position off: the map
    # breaks its own bookkeeping, which is the program's fault, not the
    # input's; the command prints nothing and one error line naming the
    # stage and the stage's path line, and exits 4, not with a traceback
    real = bijections._insert_notches
    monkeypatch.setattr(bijections, "_insert_notches",
                        lambda seq, notches: real(seq, [(x + 1, step) for x, step in notches]))
    code, out, err = run(capsys, ["bijection", "forward"],
                         stdin=rsos_line(RSOS_49) + "\n", monkeypatch=monkeypatch)
    assert (code, out) == (4, "")
    assert err == ("error: invariant broken: bij1_forward raise: peak raising weight"
                   " bookkeeping failed: half T=8 A=8 B=6 H=8,7,6,5,4,3,2,3,2,3,4,5,4,5,4,5,6\n")


def test_render_ascii_marks_scoring(capsys, monkeypatch):
    code, out, _ = run(capsys, ["render"], stdin=rsos_line(RSOS_49) + "\n",
                       monkeypatch=monkeypatch)
    assert code == 0
    marks = sum(out.count(ch) for ch in "o*")
    assert marks == 13


def test_render_svg(capsys, monkeypatch):
    code, out, _ = run(capsys, ["render", "--format", "svg"],
                       stdin=rsos_line(RSOS_49) + "\n", monkeypatch=monkeypatch)
    assert code == 0
    assert out.startswith("<svg") and "polyline" in out


def test_render_half_with_baselines(capsys, monkeypatch):
    line = "half T=10 A=2 B=2 H=" + ",".join(map(str, MINIMAL_10))
    code, out, _ = run(capsys, ["render", "--baselines"], stdin=line + "\n",
                       monkeypatch=monkeypatch)
    assert code == 0
    assert "=" in out


README_RSOS = "rsos p=4 pp=9 a=8 b=6 h=8,7,6"
README_CORNER = "half T=8 A=2 B=2 H=2,3,4,5,4,5,4,3,2"
HALF_7_UNEQUAL = "half T=7 A=2 B=6 H=2,3,4,5,4,5,4,5,6"

PICTURES = [
    (README_RSOS, [], [
        " 8 +",
        "    \\",
        " 7   *",
        "   ...\\.",
        " 6     +",
        "   ",
        " 5 ",
        "   .....",
        " 4 ",
        "   ",
        " 3 ",
        "   .....",
        " 2 ",
        "   ",
        " 1 ",
    ]),
    (README_RSOS, ["--format", "svg"], [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="64" height="144" '
        'viewBox="0 0 64 144">',
        '<rect x="16" y="96" width="32" height="16" fill="#d8d8d8"/>',
        '<rect x="16" y="64" width="32" height="16" fill="#d8d8d8"/>',
        '<rect x="16" y="32" width="32" height="16" fill="#d8d8d8"/>',
        '<polyline points="16,16 32,32 48,48" fill="none" stroke="black"/>',
        '<circle cx="32" cy="32" r="3" fill="black" stroke="black"/>',
        "</svg>",
    ]),
    (README_CORNER, ["--baselines"], [
        " 4 ",
        "   ",
        " 3 ",
        "        /+\\ /+\\",
        " 2    /+   +===+\\",
        "    /+           +\\",
        " 1 +===============+",
    ]),
    (README_CORNER, ["--baselines", "--format", "svg"], [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="160" height="144" '
        'viewBox="0 0 160 144">',
        '<polyline points="16,112 32,96 48,80 64,64 80,80 96,64 112,80 128,96 144,112" '
        'fill="none" stroke="black"/>',
        '<line x1="16" y1="112" x2="144" y2="112" stroke="gray" stroke-dasharray="3 2"/>',
        '<line x1="80" y1="80" x2="112" y2="80" stroke="gray" stroke-dasharray="3 2"/>',
        "</svg>",
    ]),
    (HALF_7_UNEQUAL, [], [
        "   ",
        " 3                /+",
        "        /+\\ /+\\ /+",
        " 2    /+   +   +",
        "    /+",
        " 1 +",
    ]),
    (HALF_7_UNEQUAL, ["--format", "svg"], [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="160" height="128" '
        'viewBox="0 0 160 128">',
        '<polyline points="16,96 32,80 48,64 64,48 80,64 96,48 112,64 128,48 144,32" '
        'fill="none" stroke="black"/>',
        "</svg>",
    ]),
]


@pytest.mark.parametrize("line, flags, expected", PICTURES,
                         ids=[f"{name}-{fmt}" for name in ("rsos", "corner", "unequal")
                              for fmt in ("ascii", "svg")])
def test_render_pictures_are_pinned(capsys, monkeypatch, line, flags, expected):
    code, out, err = run(capsys, ["render", *flags], stdin=line + "\n",
                         monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    assert out == "\n".join(expected) + "\n"


LIGHT_TAIL_RSOS = "rsos p=3 pp=5 a=4 b=2 h=4,3,2,1,2,3,4,3,2"  # b = 2 is a light floor


def test_render_draws_a_light_tail(capsys, monkeypatch):
    # only the weight diverges: the picture marks the scoring vertices 1..L
    with pytest.raises(InfiniteWeightError):
        rsos.weight(RsosPath.from_line(LIGHT_TAIL_RSOS))
    code, out, err = run(capsys, ["render"], stdin=LIGHT_TAIL_RSOS + "\n",
                         monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    assert out == "\n".join([
        " 4 +           +",
        "   .\\........./.\\...",
        " 3   +       o   +",
        "      \\     /     \\",
        " 2     *   +       *",
        "   .....\\./.........",
        " 1       +",
    ]) + "\n"
    code, out, err = run(capsys, ["render", "--format", "svg"], stdin=LIGHT_TAIL_RSOS + "\n",
                         monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    assert out == "\n".join([
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="160" height="80" '
        'viewBox="0 0 160 80">',
        '<rect x="16" y="48" width="128" height="16" fill="#d8d8d8"/>',
        '<rect x="16" y="16" width="128" height="16" fill="#d8d8d8"/>',
        '<polyline points="16,16 32,32 48,48 64,64 80,48 96,32 112,16 128,32 144,48" '
        'fill="none" stroke="black"/>',
        '<circle cx="48" cy="48" r="3" fill="black" stroke="black"/>',
        '<circle cx="96" cy="32" r="3" fill="white" stroke="black"/>',
        '<circle cx="144" cy="48" r="3" fill="black" stroke="black"/>',
        "</svg>",
    ]) + "\n"


def test_render_bad_input_exit_2(capsys, monkeypatch):
    code, _, err = run(capsys, ["render"], stdin="garbage\n",
                       monkeypatch=monkeypatch)
    assert code == 2 and "error" in err


@pytest.mark.parametrize("argv", [["render"], ["dissect"], ["bijection", "inverse"]])
def test_a_half_tail_band_at_the_top_of_the_strip_exits_2(capsys, monkeypatch, argv):
    # the band {8, 9} leaves the strip 2..8: no command takes the line
    code, out, err = run(capsys, argv, stdin="half T=8 A=6 B=8 H=6,7,8\n",
                         monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", "error: tail height B=8 out of range 2..7\n")


def test_dissect_json(capsys, monkeypatch):
    line = "half T=10 A=2 B=2 H=" + ",".join(map(str, MINIMAL_10))
    code, out, _ = run(capsys, ["dissect"], stdin=line + "\n",
                       monkeypatch=monkeypatch)
    assert code == 0
    payload = json.loads(out)
    assert payload["sector"] == [2, 1, 1, 1, 0, 1, 0]
    assert payload["particles"][0]["charge"] == "7/2"


def test_dissect_broken_invariant_exit_4(capsys, monkeypatch):
    # a dissection whose scan reads each peak on the valley to its right:
    # no peak can then take a charge, which no valid path reaches; the
    # command prints nothing and one error line naming the dissection and
    # the path line, and exits 4, not with a traceback
    real = particles._dissect

    def misread(path):
        w, ell, _, valleys = path._scan
        vars(path)["_scan"] = (w, ell, valleys[1:], valleys)
        return real(path)

    monkeypatch.setattr(particles, "_dissect", misread)
    code, out, err = run(capsys, ["dissect"], stdin="half T=8 A=2 B=2 H=2,3,4,3,2\n",
                         monkeypatch=monkeypatch)
    assert (code, out) == (4, "")
    assert err == ("error: invariant broken: dissect: peaks without a charge after the scan:"
                   " [4]: half T=8 A=2 B=2 H=2,3,4,3,2\n")


def test_sector_gf(capsys):
    code, out, _ = run(capsys, ["sector-gf", "--t2", "8", "--n", "0,0,0,0,0",
                                "--order", "4"])
    assert code == 0
    assert out.strip() == "1,0,0,0,0"


def test_sector_gf_negative_occupation_exit_2(capsys):
    code, out, err = run(capsys, ["sector-gf", "--t2", "8", "--n", "1,-1,1,0,0",
                                  "--order", "12"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "(1, -1, 1, 0, 0)" in err


def test_sector_gf_refuses_small_t2_before_the_sector_length(capsys):
    # T < 4 has no sector at all, so it is refused as `character fermionic`
    # refuses it, not as a sector of the wrong length
    for n in ("1", "-1"):
        code, out, err = run(capsys, ["sector-gf", "--t2", "3", "--n", n, "--order", "5"])
        assert (code, out, err) == (2, "", "error: need T = 2t >= 4, got 3\n")
    code, out, err = run(capsys, ["character", "fermionic", "--t2", "3", "--order", "5"])
    assert (code, out, err) == (2, "", "error: need T = 2t >= 4, got 3\n")


def test_verify_products_json(capsys):
    code, out, _ = run(capsys, ["verify", "products", "--order", "12",
                                "--workers", "1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        assert json.loads(line)["status"] == "pass"


def test_determinism(capsys, monkeypatch):
    argv = ["paths", "rsos", "3", "7", "4", "2", "--max-weight", "4"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_verify_negative_order_exit_2(capsys):
    code, out, err = run(capsys, ["verify", "products", "--order", "-1",
                                  "--workers", "1"])
    assert code == 2
    assert out == ""
    assert "order must be nonnegative" in err


def test_verify_small_max_t2_exit_2(capsys):
    # a bound below T = 4 used to build no jobs and report success
    for suite, bound in (("sectors", "2"), ("theorem2", "-1")):
        code, out, err = run(capsys, ["verify", suite, "--order", "6",
                                      f"--max-t2={bound}", "--workers", "1"])
        assert code == 2
        assert out == ""
        assert f"error: max_t2 must be at least 4, got {bound}" in err


def test_verify_workers_below_one_exit_2(capsys, monkeypatch):
    # a count below 1 used to run the jobs serially and exit 0
    ran, real = [], verify.modular_product
    monkeypatch.setattr(verify, "modular_product",
                        lambda *args: ran.append(args) or real(*args))
    for workers in ("0", "-3"):
        code, out, err = run(capsys, ["verify", "products", "--order", "6",
                                      f"--workers={workers}"])
        assert code == 2
        assert out == ""
        assert f"error: workers must be at least 1, got {workers}" in err
    assert ran == []


def test_verify_job_that_raises_fails_alone(capsys, monkeypatch):
    real = verify.modular_product

    def broken_product(modulus, residues, order):
        if modulus == 28:  # M(3,7)
            raise AssertionError("broken on purpose")
        return real(modulus, residues, order)

    monkeypatch.setattr(verify, "modular_product", broken_product)
    code, out, _ = run(capsys, ["verify", "products", "--order", "10",
                                "--workers", "1"])
    assert code == 1
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert [(r["name"], r["status"]) for r in reports] == [
        ("product M(2,5)", "pass"), ("product M(3,4)", "pass"), ("product M(3,7)", "fail")]
    bad = reports[2]
    assert (bad["suite"], bad["params"], bad["order"]) == (
        "products", {"model": "M(3,7)", "modulus": 28}, 10)
    assert bad["detail"]["error"] == "AssertionError: broken on purpose"
    assert bad["detail"]["at"].startswith("test_cli.py:")
    assert bad["detail"]["at"].endswith(" in broken_product")


def _broken(*args):
    raise RuntimeError("broken on purpose")


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_verify_job_that_raises_keeps_its_own_report(capsys, monkeypatch, suite, workers):
    # the suite's first job gets a check that raises: its report keeps the
    # job's suite, name, params and order, in this process and out of the
    # pool alike, and every other job of the suite still passes
    make = verify.SUITES[suite]

    def first_broken(order, max_t2):
        first, *rest = make(order, max_t2)
        return [(*first[:4], _broken, first[5]), *rest]

    monkeypatch.setitem(verify.SUITES, suite, first_broken)
    code, out, _ = run(capsys, ["verify", suite, "--order", "6", "--max-t2", "5",
                                "--workers", workers])
    assert code == 1
    reports = [json.loads(line) for line in out.strip().splitlines()]
    jobs = make(6, 5)
    assert len(reports) == len(jobs)
    bad = [r for r in reports if r["status"] != "pass"]
    assert len(bad) == 1
    assert (bad[0]["suite"], bad[0]["name"], bad[0]["params"], bad[0]["order"]) == jobs[0][:4]
    assert (bad[0]["mismatch_power"], bad[0]["lhs"], bad[0]["rhs"]) == (None, None, None)
    assert set(bad[0]["detail"]) == {"error", "at"}
    assert bad[0]["detail"]["error"] == "RuntimeError: broken on purpose"
    assert bad[0]["detail"]["at"].startswith("test_cli.py:")
    assert bad[0]["detail"]["at"].endswith(" in _broken")


def test_verify_series_mismatch_names_its_job(capsys, monkeypatch):
    # one coefficient off in one product: its own report names the power
    # and both coefficients, and the other products still pass
    real = verify.modular_product

    def off_by_one(modulus, residues, order):
        series = real(modulus, residues, order)
        if modulus != 5:  # M(2,5)
            return series
        coeffs = list(series.coeffs)
        coeffs[3] += 1
        return QSeries(order, tuple(coeffs))

    monkeypatch.setattr(verify, "modular_product", off_by_one)
    code, out, _ = run(capsys, ["verify", "products", "--order", "8",
                                "--workers", "1"])
    assert code == 1
    reports = {r["name"]: r for r in map(json.loads, out.strip().splitlines())}
    bad = reports.pop("product M(2,5)")
    # chi(2,5,1,2) = 1 + q + q^2 + q^3 + 2q^4 + ...
    assert (bad["status"], bad["mismatch_power"], bad["lhs"], bad["rhs"]) == ("fail", 3, 2, 1)
    assert (bad["suite"], bad["params"], bad["order"]) == (
        "products", {"model": "M(2,5)", "modulus": 5}, 8)
    assert sorted(r["status"] for r in reports.values()) == ["pass", "pass"]


def _out_of_memory(modulus, residues, order):
    raise MemoryError


def test_verify_out_of_memory_exit_2(capsys, monkeypatch):
    # a job that runs out of memory fails the whole command with the
    # out-of-memory message, not just its own report, whether it ran in
    # this process or in a worker of the pool
    monkeypatch.setattr(verify, "modular_product", _out_of_memory)
    for workers in ("1", "2"):
        code, out, err = run(capsys, ["verify", "products", "--order", "10",
                                      "--workers", workers])
        assert (code, out) == (2, "")
        assert err == "error: out of memory; try a smaller --order or --max-weight\n"


def test_closed_pipe_exits_quietly():
    # about 159 KB of path lines, far more than a pipe buffer holds, so a
    # write after the reader closes always fails
    argv = ["paths", "rsos", "5", "11", "8", "2", "--max-weight", "20"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with subprocess.Popen([sys.executable, "-m", "viracomb.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"rsos ")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    assert err == b""
