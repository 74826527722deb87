"""Command-line driver.

Subcommands: verify, solve, solve-z, independent, star, decompose, dilate,
brothers, zp, lift, piecewise, stabilizer.  Exit codes: 0 success or verdict
true, 1 usage error or a document that cannot be read, cannot be built or has
the wrong kind, 2 input contract violation, 3 search exhausted or verdict
false, 4 internal error (a bug in tilekit, reported on one stderr line).  With
--json all machine output is a single JSON document on stdout; diagnostics go
to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from fractions import Fraction

from . import jsonio, verify
from .analysis import has_property_star, is_independent_tuple
from .construct import brother_tiles
from .decompose import build_decomposition, dilation_check, verify_decomposition
from .errors import InputContractError
from .lattice import Lattice, PeriodicSet, stabilizer, vsub
from .solve import (lift_to_full_period, piecewise_to_periodic, search_periodic_cotile,
                    search_Z_cotile)
from .tiles import (PeriodicRationalFunction, Tile, TileTuple, WeightedTile,
                    dilate as dilate_tile, indicator)
from .torsion import MixedPeriodicSet, MixedTile, classify, cotile_conclusion

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONTRACT = 2
EXIT_FALSE = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    pass


def _load(path, *kinds):
    """The document at `path`, which must be an instance of one of `kinds`."""
    try:
        obj = jsonio.load(path)
    except FileNotFoundError:
        raise _UsageError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise _UsageError(f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}")
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise _UsageError(f"cannot parse {path}: {exc}")
    if not isinstance(obj, kinds):
        raise _UsageError(f"{path}: expected {' or '.join(k.__name__ for k in kinds)}, "
                          f"got {type(obj).__name__}")
    return obj


def _load_tuple(path):
    obj = _load(path, Tile, TileTuple)
    return obj if isinstance(obj, TileTuple) else TileTuple.make([obj])


def _emit(args, doc, text_lines):
    if args.json:
        doc.setdefault("schema", jsonio.SCHEMA)
        print(json.dumps(doc, indent=2))
    else:
        for line in text_lines:
            print(line)


def _defects_json(report):
    return [{"residue": list(r), "value": str(v)} for r, v in report.defects]


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

_GLYPHS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


def _translate_of(x, tile, aset):
    for f in sorted(tile.points):
        a = vsub(x, f)
        if aset.contains(a):
            return a
    return None


def _grid(tile, aset, window):
    """The translate covering each cell of the window, row by row from the
    top (one row in dimension 1), None for an uncovered cell; None for
    dimensions other than 1 and 2."""
    if tile.dim not in (1, 2):
        return None
    span = range(-window, window + 1)
    if tile.dim == 1:
        return [[_translate_of((x,), tile, aset) for x in span]]
    return [[_translate_of((x, y), tile, aset) for x in span] for y in reversed(span)]


def _render_ascii(tile, aset, window):
    grid = _grid(tile, aset, window)
    if grid is None:
        return ["(rendering supports dimensions 1 and 2 only)"]
    labels = {}

    def glyph(a):
        if a is None:
            return "?"
        if a not in labels:
            labels[a] = _GLYPHS[len(labels) % len(_GLYPHS)]
        return labels[a]

    return ["".join(glyph(a) for a in row) for row in grid]


def _render_svg(tile, aset, window):
    grid = _grid(tile, aset, window)
    if grid is None:
        return "<svg><!-- rendering supports dimensions 1 and 2 only --></svg>"
    cell = 14
    span = 2 * window + 1
    height = cell if tile.dim == 1 else span * cell
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{span * cell}" height="{height}">']
    for y, row in enumerate(grid):
        for x, a in enumerate(row):
            fill = f"hsl({hash(a) % 360},65%,70%)" if a is not None else "#fff"
            parts.append(f'<rect x="{x * cell}" y="{y * cell}" width="{cell}" '
                         f'height="{cell}" fill="{fill}" stroke="#333"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def _maybe_render(args, tile, aset):
    if not getattr(args, "render", None):
        return []
    window = args.window
    if args.render == "svg":
        return [_render_svg(tile, aset, window)]
    return _render_ascii(tile, aset, window)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_verify(args):
    if args.level is not None:
        g = _load(args.tiles, Tile, TileTuple, WeightedTile)
        cot = _load(args.cotile, PeriodicSet, PeriodicRationalFunction)
        if isinstance(cot, PeriodicSet):
            cot = indicator(cot)
        failing = None
        for i, tile in enumerate(g if isinstance(g, TileTuple) else (g,)):
            report = verify.is_level_tiling(tile, cot, args.level)
            if not report:
                failing = i
                break
        doc = {"command": "verify", "level": str(args.level), "ok": report.ok}
        lines = [f"level-{args.level} equation: {'holds' if report.ok else 'fails'}"]
        if isinstance(g, TileTuple):
            doc["failing_tile"] = failing
            if not report.ok:
                lines.append(f"  first failing tile: {failing}")
        doc["defects"] = _defects_json(report)
        _emit(args, doc, lines + [f"  defect at {r}: {v}" for r, v in report.defects])
        return EXIT_OK if report.ok else EXIT_FALSE
    tiles = _load_tuple(args.tiles)
    cot = _load(args.cotile, PeriodicSet)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = verify.is_joint_cotile(tiles, cot)
    for w in caught:
        print(f"tilekit: note: {w.message}", file=sys.stderr)
    doc = {"command": "verify", "ok": report.ok, "failing_tile": report.failing_tile,
           "defects": _defects_json(report.report) if report.report is not None else []}
    lines = [f"joint tiling: {'holds' if report.ok else 'fails'}"]
    if not report.ok:
        lines.append(f"  first failing tile: {report.failing_tile}")
        lines += [f"  defect at {r}: {v}" for r, v in report.report.defects]
    elif args.render:
        lines += _maybe_render(args, tiles[0], cot)
    _emit(args, doc, lines)
    return EXIT_OK if report.ok else EXIT_FALSE


def _cmd_solve(args):
    tiles = _load_tuple(args.tiles)
    if args.max_index is None:
        raise _UsageError("solve requires --max-index (no general period bound exists)")
    found = search_periodic_cotile(tiles, args.max_index,
                                   mode="all" if args.all else "first")
    doc = {"command": "solve", "max_index": args.max_index,
           "solutions": [{"lattice": jsonio.to_document(lat),
                          "members": [list(m) for m in a.sorted_members],
                          "stabilizer": jsonio.to_document(lat)}
                         for lat, a in found]}
    lines = [f"{len(found)} solution(s) with stabilizer index <= {args.max_index}"]
    for lat, a in found:
        lines.append(f"  lattice {list(map(list, lat.basis))} members {list(a.sorted_members)}")
    if found and args.render:
        lines += _maybe_render(args, tiles[0], found[0][1])
    _emit(args, doc, lines)
    return EXIT_OK if found else EXIT_FALSE


def _cmd_solve_z(args):
    tile = _load(args.tile, Tile)
    result = search_Z_cotile(tile)
    doc = {"command": "solve-z", "tiles": result.tiles,
           "period_bound": result.period_bound,
           "periods_checked": list(result.periods_checked)}
    if result.tiles:
        doc["cotile"] = jsonio.to_document(result.cotile)
        lines = [f"tiles Z with period {result.cotile.lattice.index()}",
                 f"  co-tile members {list(result.cotile.sorted_members)}"]
    else:
        lines = [f"NO-TILING: exhausted {len(result.periods_checked)} candidate periods "
                 f"up to the bound {result.period_bound}"]
    _emit(args, doc, lines)
    return EXIT_OK if result.tiles else EXIT_FALSE


def _cmd_independent(args):
    tiles = _load_tuple(args.tiles)
    res = is_independent_tuple(tiles)
    doc = {"command": "independent", "independent": res.independent,
           "witness": [list(v) for v in res.witness] if res.witness else None}
    _emit(args, doc, [f"independent: {res.independent}"
                      + (f" (witness {res.witness})" if res.witness else "")])
    return EXIT_OK if res.independent else EXIT_FALSE


def _cmd_star(args):
    tiles = _load_tuple(args.tiles)
    res = has_property_star(tiles)
    doc = {"command": "star", "property_star": res.holds,
           "witness": [[list(v) for v in sel] for sel in res.witness] if res.witness else None}
    _emit(args, doc, [f"span uniqueness: {res.holds}"
                      + (f" (witness {res.witness})" if res.witness else "")])
    return EXIT_OK if res.holds else EXIT_FALSE


def _cmd_decompose(args):
    tiles = _load_tuple(args.tiles)
    cot = _load(args.cotile, PeriodicSet, PeriodicRationalFunction)
    fn = indicator(cot) if isinstance(cot, PeriodicSet) else cot
    depth = args.depth if args.depth is not None else len(tiles.tiles)
    if not 1 <= depth <= len(tiles.tiles):
        raise _UsageError(f"depth must be between 1 and {len(tiles.tiles)}")
    prefix = TileTuple.make(list(tiles)[:depth])
    tree = build_decomposition(prefix, fn, levels=args.level)
    report = verify_decomposition(tree)
    nodes_doc = []
    for chain, node in sorted(tree.nodes.items()):
        nodes_doc.append({"chain": [list(v) for v in chain],
                          "lattice": jsonio.to_document(node.lattice),
                          "values": [[list(r), str(v)] for r, v in sorted(node.values.items())]})
    doc = {"command": "decompose", "q": tree.q, "depth": depth,
           "nodes": nodes_doc,
           "report": {"ok": report.ok,
                      "recursion": len(report.recursion),
                      "reconstruction": len(report.reconstruction),
                      "invariance": len(report.invariance),
                      "convolution": len(report.convolution)}}
    lines = [f"decomposition with q = {tree.q}: {len(tree.nodes)} nodes, "
             f"identities {'all hold' if report.ok else 'FAIL'}"]
    _emit(args, doc, lines)
    return EXIT_OK if report.ok else EXIT_FALSE


def _cmd_dilate(args):
    tile = _load(args.tile, Tile)
    scaled = dilate_tile(tile, args.r)
    if args.cotile is None:
        _emit(args, {"command": "dilate", "r": args.r,
                     "tile": jsonio.to_document(scaled)},
              [f"dilated tile: {list(scaled.sorted_points)}"])
        return EXIT_OK
    cot = _load(args.cotile, PeriodicSet, PeriodicRationalFunction)
    fn = indicator(cot) if isinstance(cot, PeriodicSet) else cot
    ok = dilation_check(tile, fn, args.level, args.r)
    _emit(args, {"command": "dilate", "r": args.r, "level": str(args.level), "ok": ok},
          [f"dilation by {args.r} preserves the level-{args.level} equation: {ok}"])
    return EXIT_OK if ok else EXIT_FALSE


def _cmd_brothers(args):
    tile = _load(args.tile, Tile)
    cot = _load(args.cotile, PeriodicSet)
    brothers = brother_tiles(tile, cot)
    full = TileTuple.make(list(brothers) + [tile])
    doc = {"command": "brothers",
           "brothers": jsonio.to_document(brothers),
           "verification": {"joint_tiling": verify.is_joint_cotile(full, cot).ok,
                            "independent": bool(is_independent_tuple(full)),
                            "property_star": bool(has_property_star(
                                TileTuple.make(list(brothers)[:tile.dim - 2] + [tile])))}}
    lines = ["companion tiles:"]
    lines += [f"  {list(b.sorted_points)}" for b in brothers]
    lines.append("all three postconditions verified")
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_zp(args):
    tile = _load(args.tile, MixedTile)
    if tile.p != args.p:
        raise _UsageError(f"document has p={tile.p}, flag says p={args.p}")
    cls = classify(tile)
    doc = {"command": "zp", "p": args.p, "class": cls.kind}
    lines = [f"classification: {cls.kind}"]
    if cls.base is not None:
        doc["base"] = jsonio.to_document(cls.base)
        lines.append(f"  base tile {list(cls.base.sorted_points)}")
    if args.cotile:
        aset = _load(args.cotile, MixedPeriodicSet)
        verdict = cotile_conclusion(tile, aset)
        doc["verdict"] = {"kind": verdict.kind, "periodic": verdict.periodic,
                          "stabilizer_generator": list(verdict.stabilizer_generator)}
        lines.append(f"co-tile verdict: {verdict.kind}, periodic with generator "
                     f"{verdict.stabilizer_generator}")
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_lift(args):
    tiles = _load_tuple(args.tiles)
    cot = _load(args.cotile, PeriodicSet)
    gamma0 = _load(args.gamma0, Lattice)
    out = lift_to_full_period(tiles, gamma0, cot)
    _emit(args, {"command": "lift", "cotile": jsonio.to_document(out)},
          [f"fully periodic co-tile: lattice {list(map(list, out.lattice.basis))} "
           f"members {list(out.sorted_members)}"])
    return EXIT_OK


def _cmd_piecewise(args):
    tiles = _load_tuple(args.tiles)
    pieces = [_load(p, PeriodicSet) for p in args.pieces]
    declared = [_load(p, Lattice) for p in args.stabilizers] if args.stabilizers else None
    out = piecewise_to_periodic(tiles, pieces, declared_stabilizers=declared)
    _emit(args, {"command": "piecewise", "cotile": jsonio.to_document(out)},
          [f"fully periodic co-tile: lattice {list(map(list, out.lattice.basis))} "
           f"members {list(out.sorted_members)}"])
    return EXIT_OK


def _cmd_stabilizer(args):
    obj = _load(args.cotile, PeriodicSet, PeriodicRationalFunction)
    stab = stabilizer(obj) if isinstance(obj, PeriodicSet) else obj.stabilizer()
    _emit(args, {"command": "stabilizer", "stabilizer": jsonio.to_document(stab)},
          [f"stabilizer basis {list(map(list, stab.basis))}, index {stab.index()}"])
    return EXIT_OK


def _level(text):
    """A --level argument, read by the parser of document values."""
    return jsonio.parse_rational(text)


_level.__name__ = "Fraction"    # argparse names the type: "invalid Fraction value"


# parsing keeps no state in the parser, so one parser serves every main() call
@functools.cache
def build_parser():
    parser = _Parser(prog="tilekit",
                     description="Exact computation with translational tilings of Z^d")
    parser.add_argument("--json", action="store_true", default=False,
                        help="machine-readable output")
    # --json is also accepted after the subcommand; SUPPRESS keeps the
    # pre-subcommand value when the flag is absent there
    common = _Parser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(handler=fn)
        return p

    p = add("verify", _cmd_verify, help="check tiling or level equations")
    p.add_argument("--tiles", required=True)
    p.add_argument("--cotile", required=True)
    p.add_argument("--level", type=_level, default=None)
    p.add_argument("--render", choices=["ascii", "svg"])
    p.add_argument("--window", type=int, default=6)

    p = add("solve", _cmd_solve, help="search for periodic joint co-tiles")
    p.add_argument("--tiles", required=True)
    p.add_argument("--max-index", type=int, default=None)
    p.add_argument("--all", action="store_true")
    p.add_argument("--render", choices=["ascii", "svg"])
    p.add_argument("--window", type=int, default=6)

    p = add("solve-z", _cmd_solve_z, help="decide tiling of the integers")
    p.add_argument("--tile", required=True)

    p = add("independent", _cmd_independent, help="test tuple independence")
    p.add_argument("--tiles", required=True)

    p = add("star", _cmd_star, help="test the span-uniqueness property")
    p.add_argument("--tiles", required=True)

    p = add("decompose", _cmd_decompose, help="build and verify the chain decomposition")
    p.add_argument("--tiles", required=True)
    p.add_argument("--cotile", required=True)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--level", type=_level, action="append", default=None,
                   help="per-tile level (repeat once per tile)")

    p = add("dilate", _cmd_dilate, help="dilate a tile; optionally check the dilation identity")
    p.add_argument("--tile", required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--cotile", default=None)
    p.add_argument("--level", type=_level, default=Fraction(1))

    p = add("brothers", _cmd_brothers, help="build companion tiles for a periodic tiling")
    p.add_argument("--tile", required=True)
    p.add_argument("--cotile", required=True)

    p = add("zp", _cmd_zp, help="classify tiles of Z x (Z/pZ) and check co-tiles")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--tile", required=True)
    p.add_argument("--cotile", default=None)

    p = add("lift", _cmd_lift, help="lift an almost-periodic co-tile to a fully periodic one")
    p.add_argument("--tiles", required=True)
    p.add_argument("--cotile", required=True)
    p.add_argument("--gamma0", required=True)

    p = add("piecewise", _cmd_piecewise, help="periodic co-tile from periodic pieces")
    p.add_argument("--tiles", required=True)
    p.add_argument("--pieces", nargs="+", required=True)
    p.add_argument("--stabilizers", nargs="+", default=None)

    p = add("stabilizer", _cmd_stabilizer, help="full stabilizer of a periodic set or function")
    p.add_argument("--cotile", required=True)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if getattr(args, "window", 0) < 0:
            raise _UsageError(f"--window must be non-negative, got {args.window}")
        return args.handler(args)
    except _UsageError as exc:
        print(f"tilekit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputContractError as exc:
        print(f"tilekit: input contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except Exception as exc:
        # any other exception is a bug; the Python API keeps the traceback
        print(f"tilekit: internal error (a bug in tilekit): {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
