"""
Command-line interface.

Subcommands:
    table           two-variable Green table for a group and Levi
    scalar          Gelfand-Graev scalar products for a group and Levi
    verify          run the internal consistency suite for a group
    oracle-compare  compare symbolic values against brute-force counts
    pack-validate   validate a Springer data pack (JSON)
    pack-export     export the generated GL_n table as a data pack

Exit codes: 0 success, 2 bad or missing data, 3 violated internal
invariant, 4 cross-path or oracle mismatch.  Output is deterministic:
identical invocations produce identical bytes, and any conditional
assumptions baked into the data appear as header lines.
"""

from __future__ import annotations

import argparse
import json
import sys

from .characters import DataPackRequired, partitions
from .gelfand import gg_norm, induced_gg_norm, y_norm
from .green import SolverError, green_orthogonality
from .cyclo import CycQ
from .oracle import FiniteGL, OracleError
from .qpoly import ArithmeticInvariantError, PhiParseError, render_poly
from .rootdata import cartan_type, gl_block_sizes
from .springer import (
    export_pack,
    gl_levi_class_label,
    gl_springer,
    load_pack,
    partition_label,
)
from .twovar import CrossPathMismatch, TwoVarEngine, green_two_var_table

EXIT_OK = 0
EXIT_DATA = 2
EXIT_INVARIANT = 3
EXIT_MISMATCH = 4


def _load_table(args):
    if getattr(args, "pack", None):
        with open(args.pack, encoding="utf-8") as fh:
            return load_pack(fh.read())
    G = cartan_type(args.group)
    if G.gl_size is None:
        raise DataPackRequired(
            f"group {args.group}: tables are generated only for GL_n; "
            "pass --pack for other groups"
        )
    return gl_springer(G.gl_size)


def _levi(args, G):
    if not args.levi:
        return G.levi(())
    subset = tuple(int(s) for s in args.levi.split(","))
    return G.levi(subset)


def _emit(text: str):
    sys.stdout.write(text)


def _header(lines):
    return "".join(f"# {line}\n" for line in lines)


def cmd_table(args) -> int:
    tG = _load_table(args)
    L = _levi(args, tG.group)
    table = green_two_var_table(tG, L)
    if args.format == "json":
        _emit(json.dumps(table.to_json(), indent=2, sort_keys=True) + "\n")
    else:
        head = [f"table group={table.group_label} levi={list(table.levi_subset)}"]
        head += [f"assumption: {a}" for a in table.assumptions]
        _emit(_header(head) + table.to_csv())
    return EXIT_OK


def cmd_scalar(args) -> int:
    tG = _load_table(args)
    G = tG.group
    L = _levi(args, G)
    lines = [
        f"group={G.label} levi={list(L.subset)}",
        f"induced_gg_norm={render_poly(induced_gg_norm(G, L))}",
        f"gg_norm={render_poly(gg_norm(G))}",
        f"y_norm={y_norm(G)}",
    ]
    _emit("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    tG = _load_table(args)
    G = tG.group
    checks = []
    for blk in tG.blocks:
        green_orthogonality(tG, blk.block_id)
        checks.append(f"block {blk.block_id}: orthogonality OK")
    L = _levi(args, G)
    green_two_var_table(tG, L)
    checks.append(f"levi {list(L.subset)}: cross-path OK")
    full = G.levi(tuple(range(len(G.simple_roots))))
    if induced_gg_norm(G, full) != gg_norm(G):
        raise SolverError("induced_gg_norm(G, G) != gg_norm(G)")
    checks.append("gelfand-graev invariant OK")
    _emit("\n".join(checks) + "\nverify: OK\n")
    return EXIT_OK


def cmd_oracle_compare(args) -> int:
    from itertools import product as _iter_product

    tG = _load_table(args)
    G = tG.group
    if G.gl_size is None:
        raise DataPackRequired("oracle comparison needs a GL_n group")
    n = G.gl_size
    L = _levi(args, G)
    composition = gl_block_sizes(n, L.subset)
    FG = FiniteGL(n, args.q)
    engine = TwoVarEngine(tG, L)
    compared = 0
    for u in partitions(n):
        for vs in _iter_product(*[partitions(s) for s in composition]):
            counted = FG.hc_two_var(composition, u, vs)
            symbolic = engine.blocksum(
                partition_label(u), gl_levi_class_label(vs)
            ).evaluate(args.q)
            if symbolic != CycQ(counted):
                raise OracleError(
                    f"mismatch at u={u}, v={vs}: {symbolic} != {counted}"
                )
            compared += 1
    _emit(
        f"oracle-compare group={G.label} q={args.q} "
        f"levi={list(L.subset)}: {compared} entries OK\n"
    )
    return EXIT_OK


def cmd_pack_validate(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        table = load_pack(fh.read())
    _emit(
        f"pack OK: group={table.group.label} classes={len(table.classes)} "
        f"systems={len(table.systems)} blocks={len(table.blocks)}\n"
    )
    return EXIT_OK


def cmd_pack_export(args) -> int:
    G = cartan_type(args.group)
    if G.gl_size is None:
        raise DataPackRequired("pack export is generated only for GL_n")
    doc = export_pack(gl_springer(G.gl_size))
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        _emit(text)
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenfn",
        description="Exact Green functions for Levi subgroups of reductive groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, levi=True):
        p.add_argument("group", help="group label, e.g. GL3 or 2E6sc")
        p.add_argument("--pack", help="JSON data pack for non-GL groups")
        if levi:
            p.add_argument(
                "--levi", default="", help="comma-separated simple-root subset"
            )

    p = sub.add_parser("table", help="two-variable Green table")
    common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("scalar", help="Gelfand-Graev scalar products")
    common(p)
    p.set_defaults(func=cmd_scalar)

    p = sub.add_parser("verify", help="internal consistency suite")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle-compare", help="compare against counted values")
    common(p)
    p.add_argument("--q", type=int, required=True, choices=(2, 3))
    p.set_defaults(func=cmd_oracle_compare)

    p = sub.add_parser("pack-validate", help="validate a data pack")
    p.add_argument("file")
    p.set_defaults(func=cmd_pack_validate)

    p = sub.add_parser("pack-export", help="export the GL_n table as a pack")
    p.add_argument("group")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_pack_export)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (CrossPathMismatch, OracleError) as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (SolverError, ArithmeticInvariantError) as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (DataPackRequired, PhiParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
