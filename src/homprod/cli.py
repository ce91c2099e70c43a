"""Command-line driver.

Exit codes: 0 ok, 2 validation failure (bad arguments included), 3 some
distance is only an interval because its kernel exceeded the cap, 4 parse
or I/O error.  All commands are deterministic given their flags and seeds,
and reports embed full provenance.
"""

from __future__ import annotations

import argparse
import functools
import json
import shutil
import sys
from pathlib import Path

from .alist import ParseError, _write_text_atomic, read_alist, write_alist
from .bundle import _save_boundaries, load_bundle, save_bundle
from .codes import InvalidSpec, ensemble_matrix, extract_css
from .complexes import ChainComplex, LevelOutOfRange, NotOrthogonal, one_complex
from .distance import DEFAULT_KERNEL_CAP
from .gf2 import DimensionMismatch
from .products import (
    InvalidExponents,
    _power_split,
    _product_boundaries,
    product_dimensions,
)
from .report import FORMATS, analysis_levels, distance_levels, provenance, render
from .verify import verify_bundle

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAP = 3
EXIT_IO = 4

_VALIDATION_ERRORS = (
    DimensionMismatch,
    NotOrthogonal,
    LevelOutOfRange,
    InvalidSpec,
    InvalidExponents,
)


def _int_at_least(text: str, least: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _seed_matrix(args, parser):
    """The ``--ensemble`` seed matrix, or None under ``--matrix``; exactly one is required."""
    if bool(args.matrix) == bool(args.ensemble):
        parser.error("exactly one of --matrix or --ensemble is required")
    if args.matrix:
        return None
    return ensemble_matrix(args.ensemble, seed=args.seed)


def cmd_build(args, parser) -> int:
    p = _seed_matrix(args, parser)
    if p is None:
        cx = ChainComplex([read_alist(f) for f in args.matrix])
        source = {"kind": "matrices", "files": [str(f) for f in args.matrix]}
    else:
        cx = one_complex(p)
        source = {"kind": "ensemble", "spec": args.ensemble, "seed": args.seed}
    save_bundle(cx, args.out, provenance("build", seed=args.seed, source=source))
    print(f"wrote bundle {args.out} (m={cx.m}, dims={list(cx.dims)})")
    return EXIT_OK


def _save_product(a: ChainComplex, b: ChainComplex, out: Path, prov: dict) -> list[int]:
    """Save the product of ``a`` and ``b`` as a bundle, writing each boundary
    as it is built; returns its dims."""
    dims = [product_dimensions(a, b, level) for level in range(a.m + b.m + 1)]
    _save_boundaries(out, dims, _product_boundaries(a, b), prov)
    return dims


def cmd_product(args, parser) -> int:
    a = load_bundle(args.a_bundle)
    b = load_bundle(args.b_bundle)
    out = Path(args.out)
    source = {"kind": "product", "factors": ["factors/0", "factors/1"]}
    dims = _save_product(a.complex, b.complex, out, provenance("product", source=source))
    for i, factor in enumerate((a, b)):
        dest = out / "factors" / str(i)
        if dest.exists():
            shutil.rmtree(dest)
        shutil.copytree(factor.path, dest)
    print(f"wrote bundle {out} (m={len(dims) - 1}, dims={dims})")
    return EXIT_OK


def cmd_power(args, parser) -> int:
    p = _seed_matrix(args, parser)
    source = {"kind": "power", "a": args.a, "b": args.b, "matrix": "seed.alist"}
    if p is None:
        if len(args.matrix) > 1:
            parser.error("power takes a single seed matrix")
        p = read_alist(args.matrix[0])
        source["seed_file"] = str(args.matrix[0])
    else:
        source.update(ensemble=args.ensemble, seed=args.seed)
    prov = provenance("power", seed=args.seed, a=args.a, b=args.b, source=source)
    rest, last = _power_split(p, args.a, args.b)
    out = Path(args.out)
    if rest is None:
        save_bundle(last, out, prov)
        dims = list(last.dims)
    else:
        dims = _save_product(rest, last, out, prov)
    write_alist(p, out / "seed.alist")
    print(f"wrote bundle {out} (m={len(dims) - 1}, dims={dims})")
    return EXIT_OK


def cmd_analyze(args, parser) -> int:
    bundle = load_bundle(args.bundle)
    report = {
        "provenance": provenance("analyze", bundle=str(args.bundle)),
        "m": bundle.complex.m,
        "dims": list(bundle.complex.dims),
        "levels": analysis_levels(bundle.complex),
    }
    sys.stdout.write(render(report, args.format))
    return EXIT_OK


def cmd_distance(args, parser) -> int:
    bundle = load_bundle(args.bundle)
    cx = bundle.complex
    # Each requested level once, in first-seen order.
    levels = list(dict.fromkeys(args.level)) if args.level else list(range(cx.m + 1))
    for j in levels:
        if not 0 <= j <= cx.m:
            raise LevelOutOfRange(f"level {j} outside 0..{cx.m}")
    entries, cap_hit = distance_levels(cx, levels, args.cap)
    report = {
        "provenance": provenance("distance", bundle=str(args.bundle), cap=args.cap,
                                 levels=levels),
        "m": cx.m,
        "dims": list(cx.dims),
        "levels": entries,
    }
    sys.stdout.write(render(report, args.format))
    return EXIT_CAP if cap_hit else EXIT_OK


def cmd_verify(args, parser) -> int:
    bundle = load_bundle(args.bundle)
    outcome = verify_bundle(bundle, cap=args.cap)
    for note in outcome.notes:
        print(f"note: {note}")
    for violation in outcome.violations:
        print(f"violation: {violation}")
    print(f"checks={outcome.checks} violations={len(outcome.violations)}")
    return EXIT_OK if outcome.ok() else EXIT_VALIDATION


def cmd_export_css(args, parser) -> int:
    bundle = load_bundle(args.bundle)
    code = extract_css(bundle.complex, args.level)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_alist(code.g_x, out / "gx.alist")
    write_alist(code.g_z, out / "gz.alist")
    meta = {"level": args.level, "n": code.n, "g_x": "gx.alist", "g_z": "gz.alist"}
    _write_text_atomic(out / "css.json", json.dumps(meta, indent=2, sort_keys=True) + "\n",
                       "utf-8")
    print(f"wrote {out / 'gx.alist'} and {out / 'gz.alist'}")
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves no state on it."""
    parser = argparse.ArgumentParser(
        prog="homprod",
        description="Build product chain complexes over GF(2) and compute code parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, seed=False, cap=False, fmt=False):
        if seed:
            p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
        if cap:
            p.add_argument("--cap", type=_non_negative_int, default=DEFAULT_KERNEL_CAP,
                           help="kernel dimension cap for exact searches")
            p.add_argument("--threads", type=_positive_int, default=1,
                           help="ignored: the walk runs in one process")
        if fmt:
            p.add_argument("--format", choices=FORMATS, default="report")

    p = sub.add_parser("build", help="bundle a complex from matrix files or an ensemble")
    p.add_argument("--matrix", action="append", default=[],
                   help="alist file; repeat for A_1..A_m in order")
    p.add_argument("--ensemble", help="gallager:v,w,c | rep:L | id:n; "
                   "a matrix in a file goes through --matrix")
    p.add_argument("--out", required=True)
    add_common(p, seed=True)

    p = sub.add_parser("product", help="tensor product of two bundles")
    p.add_argument("a_bundle")
    p.add_argument("b_bundle")
    p.add_argument("--out", required=True)

    p = sub.add_parser("power", help="product of copies of K(P) and K(P^T)")
    p.add_argument("--matrix", action="append", default=[], help="seed alist file")
    p.add_argument("--ensemble", help="gallager:v,w,c | rep:L | id:n; "
                   "a seed in a file goes through --matrix")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--out", required=True)
    add_common(p, seed=True)

    p = sub.add_parser("analyze", help="dimensions, homology ranks, sparsity")
    p.add_argument("bundle")
    add_common(p, fmt=True)

    p = sub.add_parser("distance", help="exact distances and witnesses per level")
    p.add_argument("bundle")
    p.add_argument("--level", action="append", type=int,
                   help="level to search; repeatable (a repeat is walked once); default all")
    add_common(p, cap=True, fmt=True)

    p = sub.add_parser("verify", help="check product predictions and the distance formula")
    p.add_argument("bundle")
    add_common(p, cap=True)

    p = sub.add_parser("export-css", help="write G_X and G_Z alist files for a level")
    p.add_argument("bundle")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Looked up by name on each call, so the cached parser runs whatever
    # ``cmd_*`` function the module holds now.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args, parser)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
