"""Command-line surface: compute series, enumerate paths, run bijections,
verify identities, and render pictures.

Half-integer parameters are always passed doubled (--t2, --A, --B).  Exit
codes: 0 success, 1 verification failure, 2 invalid input (an --order or
--max-weight too large for the memory at hand included), 4 a broken
invariant of the program itself (`lattice.InvariantError`, an
`AssertionError` raised explicitly), 141 (128 + SIGPIPE) output pipe
closed early.  Code 3, once bijection input outside the map's image, is
retired and not reused: every path of a Theorem-1 label lies in its map's
image, so a stage that finds otherwise is a broken invariant.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import bijections as bj
from . import halfpath as hp
from . import lattice
from . import particles as pt
from . import render as rd
from . import rsos as rs
from . import verify as vf
from .characters import (
    CharacterLabel,
    InvalidLabelError,
    bosonic_character,
    fermionic_character_12,
)
from .halfpath import HalfPath, InvalidHalfPathError
from .qseries import QSeries, modular_product
from .rsos import InvalidPathError, RsosPath


def _emit_series(series: QSeries, fmt: str) -> None:
    print(series.to_csv() if fmt == "csv" else series.to_pretty())


def cmd_character(args) -> int:
    if args.kind == "bosonic":
        if len(args.label) != 4:
            raise InvalidLabelError("bosonic characters need exactly P PP R S")
        series = bosonic_character(CharacterLabel(*args.label), args.order)
    elif args.kind == "fermionic":
        if args.t2 is None:
            raise InvalidLabelError("fermionic characters need --t2")
        series = fermionic_character_12(args.t2, args.order)
    else:
        if args.mod is None or not args.res:
            raise InvalidLabelError("products need --mod and --res")
        residues = {int(x) for x in args.res.split(",")}
        series = modular_product(args.mod, residues, args.order)
    _emit_series(series, args.format)
    return 0


def cmd_paths(args) -> int:
    if args.model == "rsos":
        if len(args.params) != 4:
            raise InvalidPathError("rsos paths need P PP A B")
        model, params = rs, args.params
    else:
        if args.t2 is None or args.A is None or args.B is None:
            raise InvalidHalfPathError("half paths need --t2, --A and --B")
        model, params = hp, (args.t2, args.A, args.B)
    if args.gf:
        _emit_series(model.generating_function(*params, args.max_weight), args.format)
        return 0
    paths = model.enumerate_paths(*params, args.max_weight)  # checks the parameters
    if args.max_weight < 0:
        raise ValueError(f"max weight must be nonnegative, got {args.max_weight}")
    for path in paths:
        print(path.to_line())
    return 0


_PATH_CLASSES = {cls.kind: cls for cls in (RsosPath, HalfPath)}


def _read_path_line(stream) -> RsosPath | HalfPath:
    line = stream.readline()
    if not line.strip():
        raise InvalidPathError("expected a path line on stdin")
    kind = line.split(None, 1)[0]
    if kind not in _PATH_CLASSES:
        raise InvalidPathError(f"unknown path kind {kind!r}")
    return _PATH_CLASSES[kind].from_line(line)


def _trace_json(trace) -> str:
    payload = {}
    for f in dataclasses.fields(trace):
        value = getattr(trace, f.name)
        if isinstance(value, lattice.Path):
            payload[f.name] = value.to_line()
        elif isinstance(value, tuple):
            payload[f.name] = list(value)
        else:
            payload[f.name] = value
    return json.dumps(payload, sort_keys=True)


def cmd_bijection(args) -> int:
    path = _read_path_line(sys.stdin)
    if args.direction == "forward":
        if not isinstance(path, RsosPath):
            raise bj.BijectionDomainError("forward maps take an rsos line")
        image, trace = bj.forward(path)
        print(image.to_line())
        if args.trace:
            print(_trace_json(trace))
    else:
        if not isinstance(path, HalfPath):
            raise bj.BijectionDomainError("inverse maps take a half line")
        print(bj.inverse(path).to_line())
    return 0


def cmd_verify(args) -> int:
    reports = vf.run_suite(args.suite, order=args.order, max_t2=args.max_t2,
                           workers=args.workers)
    failed = 0
    for report in reports:
        print(report.to_json())
        if not report.ok:
            failed += 1
    return 1 if failed else 0


def cmd_render(args) -> int:
    path = _read_path_line(sys.stdin)
    if isinstance(path, RsosPath):
        print(rd.rsos_ascii(path) if args.format == "ascii" else rd.rsos_svg(path))
    else:
        if args.format == "ascii":
            print(rd.half_ascii(path, baselines=args.baselines))
        else:
            print(rd.half_svg(path, baselines=args.baselines))
    return 0


def cmd_dissect(args) -> int:
    path = _read_path_line(sys.stdin)
    if not isinstance(path, HalfPath):
        raise InvalidHalfPathError("dissect takes a half line")
    dis = pt.dissect(path)
    payload = {
        "sector": list(dis.sector),
        "particles": [
            {
                "peak": p.peak,
                "charge2": p.charge2,
                "charge": f"{p.charge2 // 2}" if p.charge2 % 2 == 0 else f"{p.charge2}/2",
                "origin": p.origin,
                "baseline_height2": p.base_h,
                "baseline_length2": p.length,
            }
            for p in dis.particles
        ],
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_sector_gf(args) -> int:
    sector = tuple([int(x) for x in args.n.split(",")])
    _emit_series(pt.sector_gf(args.t2, sector, args.order), args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viracomb",
        description="Exact q-series for minimal-model characters and their path models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("character", help="compute a character series")
    c.add_argument("kind", choices=("bosonic", "fermionic", "product"))
    c.add_argument("label", nargs="*", type=int, help="P PP R S for bosonic")
    c.add_argument("--t2", type=int, help="doubled t for fermionic")
    c.add_argument("--mod", type=int, help="modulus for product")
    c.add_argument("--res", type=str, default="", help="comma-separated residues")
    c.add_argument("--order", type=int, required=True)
    c.add_argument("--format", choices=("csv", "pretty"), default="csv")
    c.set_defaults(fn=cmd_character)

    p = sub.add_parser("paths", help="enumerate paths or their generating function")
    p.add_argument("model", choices=("rsos", "half"))
    p.add_argument("params", nargs="*", type=int, help="P PP A B for rsos")
    p.add_argument("--t2", type=int)
    p.add_argument("--A", type=int)
    p.add_argument("--B", type=int)
    p.add_argument("--max-weight", type=int, required=True)
    p.add_argument("--gf", action="store_true")
    p.add_argument("--format", choices=("csv", "pretty"), default="csv")
    p.set_defaults(fn=cmd_paths)

    b = sub.add_parser("bijection", help="map a path line between the two models")
    b.add_argument("direction", choices=("forward", "inverse"))
    b.add_argument("--trace", action="store_true")
    b.set_defaults(fn=cmd_bijection)

    v = sub.add_parser("verify", help="run an identity suite (JSON lines)")
    v.add_argument("suite", choices=sorted(vf.SUITES) + ["all"])
    v.add_argument("--order", type=int, default=20)
    v.add_argument("--max-t2", type=int, default=10)
    v.add_argument("--workers", type=int, default=None)
    v.set_defaults(fn=cmd_verify)

    r = sub.add_parser("render", help="draw a path line from stdin")
    r.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    r.add_argument("--baselines", action="store_true")
    r.set_defaults(fn=cmd_render)

    d = sub.add_parser("dissect", help="particle dissection of a half line")
    d.set_defaults(fn=cmd_dissect)

    s = sub.add_parser("sector-gf", help="generating function of one sector")
    s.add_argument("--t2", type=int, required=True)
    s.add_argument("--n", type=str, required=True, help="comma-separated occupations")
    s.add_argument("--order", type=int, required=True)
    s.add_argument("--format", choices=("csv", "pretty"), default="csv")
    s.set_defaults(fn=cmd_sector_gf)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone; the interpreter's final flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try a smaller --order or --max-weight", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: invariant broken: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
