"""The four workloads: seeded inputs, one request call, and its reference check.

Each workload is a fixed list of requests made from the seed at set-up time.
``call`` runs one request through tilekit's public API (or ``cli.main``) and
returns its output; ``check`` compares that output with a reference that does
not come from the code being timed, and returns None or the reason it fails.
Requests look tilekit names up at call time (``tk.stabilizer``) so the tracer's
wrappers are the ones called in a traced pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from pathlib import Path

import tilekit as tk
import tilekit.cli as tk_cli

import oracle

PINNED = Path(__file__).resolve().parent / "pinned.json"


def load_pinned():
    with open(PINNED) as fh:
        return json.load(fh)


def solutions_digest(keys):
    """sha256 of a sorted list of (basis, members) keys."""
    text = repr(sorted(keys))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# sweep3d: exhaustive joint search for the paper's 3-D box pair, one request per
# coordinate frame.  A unimodular change of frame maps co-tiles to co-tiles, so
# every frame must give frame 0's solutions back.
# ---------------------------------------------------------------------------

BOX_PAIR = (((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)),
            ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)))


def _matmul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
                 for i in range(3))


def _apply(m, v):
    return tuple(sum(m[i][k] * v[k] for k in range(3)) for i in range(3))


def _inverse(m):
    """Integer inverse of a 3x3 matrix of determinant +-1 (adjugate / det)."""
    cof = [[(m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
             - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3])
            for j in range(3)] for i in range(3)]
    det = sum(m[0][j] * cof[0][j] for j in range(3))
    if det not in (1, -1):
        raise ValueError("frame is not unimodular")
    return tuple(tuple(cof[j][i] * det for j in range(3)) for i in range(3))


def random_frame(rng):
    """Product of six elementary row additions: unimodular, small entries."""
    m = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for _ in range(6):
        i, j = rng.sample(range(3), 2)
        e = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        e[i][j] = rng.choice((-1, 1))
        m = _matmul(m, e)
    return m


def box_pair_in(frame):
    return tk.TileTuple.make([tk.Tile.make(3, [_apply(frame, p) for p in tile])
                              for tile in BOX_PAIR])


def solution_keys(found, frame_inverse):
    """The solutions of one frame, mapped back to frame 0 and made canonical."""
    keys = []
    for lat, aset in found:
        back = tk.hnf(3, [_apply(frame_inverse, c) for c in lat.basis])
        members = {oracle.reduce(back.basis, _apply(frame_inverse, m)) for m in aset.members}
        keys.append((back.basis, tuple(sorted(members))))
    return keys


class Sweep3d:
    name = "sweep3d"
    max_index = 12
    frames_per_pass = 100

    def __init__(self, seed, pinned):
        self.pinned = pinned["sweep3d"]
        if self.pinned["max_index"] != self.max_index:
            raise ValueError("pinned sweep3d answers are for another max_index")
        rng = random.Random(seed)
        identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        frames = [identity] + [random_frame(rng) for _ in range(self.frames_per_pass - 1)]
        self.requests = [(box_pair_in(f), _inverse(f)) for f in frames]

    def call(self, req):
        tiles, _ = req
        return tk.search_periodic_cotile(tiles, self.max_index, mode="all")

    def check(self, req, found):
        tiles, inverse = req
        if len(found) != self.pinned["distinct"]:
            return f"{len(found)} distinct solutions, frame 0 has {self.pinned['distinct']}"
        if solutions_digest(solution_keys(found, inverse)) != self.pinned["frame0_sha256"]:
            return "solutions do not map back onto frame 0's solutions"
        for _, aset in found:
            if not tk.is_joint_cotile(tiles, aset):
                return f"solution {aset} fails is_joint_cotile"
        return None


# ---------------------------------------------------------------------------
# zline: the 1-D decision procedure against the 1-D lattice sweep, on every
# normalized tile of Z with diameter 1..7.
# ---------------------------------------------------------------------------


def line_tiles(max_diameter=7):
    out = []
    for diam in range(1, max_diameter + 1):
        for inner in itertools.product((0, 1), repeat=diam - 1):
            pts = [0] + [i + 1 for i, bit in enumerate(inner) if bit] + [diam]
            out.append(tk.Tile.make(1, [(p,) for p in pts]))
    return out


def tile_mask(tile):
    return sum(1 << p[0] for p in tile.points)


class Zline:
    name = "zline"

    def __init__(self, seed, pinned):
        self.tiling_masks = set(pinned["zline"]["tiling_masks"])
        tiles = line_tiles()
        random.Random(seed).shuffle(tiles)
        self.requests = tiles

    def call(self, tile):
        decided = tk.search_Z_cotile(tile)
        swept = tk.search_periodic_cotile(tk.TileTuple.make([tile]),
                                          2 ** (tile.diameter() + 1), mode="first")
        return decided, swept

    def check(self, tile, out):
        decided, swept = out
        verdict = decided.cotile is not None
        if verdict != bool(swept):
            return f"deciders disagree on {tile}: search_Z_cotile {verdict}, sweep {bool(swept)}"
        if verdict != (tile_mask(tile) in self.tiling_masks):
            return f"verdict {verdict} on {tile} differs from the pinned verdict"
        cotiles = ([decided.cotile] if verdict else []) + [a for _, a in swept]
        for aset in cotiles:
            if not tk.is_tiling(tile, aset):
                return f"co-tile {aset} of {tile} fails is_tiling"
        return None


# ---------------------------------------------------------------------------
# periodic: analysis of known periodic tilings presented on refined lattices.
# No cover search runs here; the work is residue arithmetic in every layer.
# ---------------------------------------------------------------------------

RECTANGLES = ((2, 1), (1, 2), (2, 2), (3, 1), (1, 3))
LADDER = 150          # requests with index from tens to a few hundred residues
LADDER_LOW, LADDER_HIGH = 12, 240
BOX_REFINEMENTS = ((1, 1, 1), (1, 1, 2), (1, 2, 2))


def rectangle(a, b):
    return tk.Tile.make(2, [(x, y) for x in range(a) for y in range(b)])


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


class PeriodicRequest:
    """One tiling: a rectangle with a lattice co-tile, presented on a sublattice.

    The co-tile is the lattice generated by (a, 0) and (shear, b).  It is
    presented on the sublattice generated by k1 * (a, 0) and
    k2 * (shear, b) + j * (a, 0), of index k1 * k2 in it.
    """

    def __init__(self, rng, slot, a, b, shear, k1, k2, j):
        self.tile = rectangle(a, b)
        self.generator = tk.hnf(2, [(a, 0), (shear, b)])
        refined = tk.hnf(2, [(k1 * a, 0), (k2 * shear + j * a, k2 * b)])
        points = [(x * a + y * shear, y * b) for x in range(k1) for y in range(k2)]
        self.cotile = tk.PeriodicSet.make(refined, points)
        if len(self.cotile.members) != k1 * k2:
            raise ValueError("refined presentation lost members")
        self.gamma0 = tk.hnf(2, [(a, 0)])

        box_cotile = tk.PeriodicSet.make(tk.Lattice.diagonal([2, 2, 1]), [(0, 0, 0)])
        mult = BOX_REFINEMENTS[slot % len(BOX_REFINEMENTS)]
        box_lat = tk.Lattice.diagonal([2 * mult[0], 2 * mult[1], mult[2]])
        self.box_fn = tk.indicator(box_cotile.refine(box_lat))

        self.p = (2, 3, 5, 7)[slot % 4]
        size = rng.randrange(1, self.p)
        self.fiber = frozenset(rng.sample(range(self.p), size))
        columns = 1 + slot % 3
        self.mixed_tile = tk.MixedTile.make(
            self.p, [(n, rng.randrange(self.p)) for n in range(columns)])
        self.mixed_cotile = tk.MixedPeriodicSet.make(
            self.p, columns, [(0, t) for t in range(self.p)])


class Periodic:
    name = "periodic"

    def __init__(self, seed, pinned):
        # The slot fixes each request's size, shape, shear and box refinement,
        # so that the cost of a pass barely depends on the seed; the seed picks
        # the refinement of the presentation, the torsion inputs and the order.
        rng = random.Random(seed)
        self.box = tk.TileTuple.make([tk.Tile.make(3, t) for t in BOX_PAIR])
        self.requests = []
        for slot in range(LADDER):
            target = LADDER_LOW * (LADDER_HIGH / LADDER_LOW) ** (slot / (LADDER - 1))
            a, b = RECTANGLES[slot % len(RECTANGLES)]
            shear = (slot // len(RECTANGLES)) % a
            k = max(1, round(target / (a * b)))
            k1 = rng.choice(_divisors(k))
            self.requests.append(PeriodicRequest(
                rng, slot, a, b, shear, k1, k // k1, rng.randrange(k1)))
        rng.shuffle(self.requests)
        # The 40 x 40 torus: the horizontal domino on 2Z x Z, presented on
        # 40Z x 40Z.  It is half of a pass's time, so it always comes first,
        # where the heap it runs on does not depend on the seed.
        self.requests.insert(0, PeriodicRequest(rng, LADDER, 2, 1, 0, 20, 40, 0))

    def call(self, req):
        tiles = tk.TileTuple.make([req.tile])
        tree = tk.build_decomposition(self.box, req.box_fn)
        inverse = tk.ring_inverse(req.fiber, req.p)
        return {
            "joint": tk.is_joint_cotile(tiles, req.cotile),
            "stabilizer": tk.stabilizer(req.cotile),
            "fn_stabilizer": tk.indicator(req.cotile).stabilizer(),
            "brothers": tk.brother_tiles(req.tile, req.cotile),
            "lifted": tk.lift_to_full_period(tiles, req.gamma0, req.cotile),
            "nodes": len(tree.nodes),
            "decomposition": tk.verify_decomposition(tree),
            "inverse": inverse,
            "verdict": tk.cotile_conclusion(req.mixed_tile, req.mixed_cotile),
        }

    def check(self, req, out):
        if not out["joint"]:
            return "is_joint_cotile rejects a known co-tile"
        for key in ("stabilizer", "fn_stabilizer"):
            if out[key].basis != req.generator.basis:
                return f"{key} {out[key]} is not the generating lattice {req.generator}"
        brothers = list(out["brothers"])
        if len(brothers) != 1:
            return f"{len(brothers)} companion tiles in dimension 2"
        for tile in brothers:
            if not oracle.tiles_exactly(tile.points, req.cotile.lattice.basis,
                                        req.cotile.members):
                return f"companion {tile} does not tile with the co-tile"
        lifted = out["lifted"]
        if not oracle.tiles_exactly(req.tile.points, lifted.lattice.basis, lifted.members):
            return f"lifted set {lifted} is not a co-tile"
        if out["nodes"] != 12 or not out["decomposition"].ok:
            return "box-pair decomposition fails its identities"
        if not oracle.cyclic_convolution_is_delta(out["inverse"].values, req.fiber, req.p):
            return f"ring inverse of {sorted(req.fiber)} mod {req.p} fails g * 1_F = delta_0"
        verdict = out["verdict"]
        if verdict.kind != "generic" or not verdict.periodic or not oracle.mixed_shift_fixes(
                req.mixed_cotile.members, req.p, req.mixed_cotile.period,
                verdict.stabilizer_generator):
            return f"torsion verdict {verdict.kind} {verdict.stabilizer_generator} is wrong"
        return None


# ---------------------------------------------------------------------------
# cli: every command of the README block, text and --json, through cli.main.
# ---------------------------------------------------------------------------

README_COMMANDS = (
    "verify --tiles fixtures/box_pair_z3_tiles.json --cotile fixtures/box_pair_z3_cotile.json",
    "verify --tiles fixtures/six_block_tile.json --cotile fixtures/six_block_fn.json --level 1",
    "solve --tiles fixtures/box_pair_z3_tiles.json --max-index 4 --all",
    "solve-z --tile fixtures/six_block_tile.json",
    "independent --tiles fixtures/box_pair_z3_tiles.json",
    "star --tiles fixtures/box_pair_z3_tiles.json",
    "decompose --tiles fixtures/box_pair_z3_tiles.json --cotile fixtures/box_pair_z3_cotile.json",
    "dilate --tile fixtures/box_flat_z3_tile.json -r 7 --cotile fixtures/box_pair_z3_cotile.json",
    "brothers --tile fixtures/domino_z2_tile.json --cotile fixtures/domino_z2_cotile.json",
    "zp --p 3 --tile fixtures/full_fiber_tile_p3.json --cotile fixtures/full_fiber_cotile_p3.json",
    "lift --tiles fixtures/domino_z2_tile.json --cotile fixtures/domino_z2_cotile.json "
    "--gamma0 fixtures/vertical_axis_z2.json",
    "piecewise --tiles fixtures/domino_z2_tile.json "
    "--pieces fixtures/even_cols_even_rows.json fixtures/even_cols_odd_rows.json "
    "--stabilizers fixtures/vertical_two_z2.json fixtures/horizontal_two_z2.json",
    "stabilizer --cotile fixtures/box_pair_z3_cotile.json",
)
CLI_ROUNDS = 4


def cli_argvs():
    return [tuple(cmd.split()) + extra for cmd in README_COMMANDS for extra in ((), ("--json",))]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tk_cli.main(list(argv))
    return code, out.getvalue()


def cli_digest(code, stdout):
    return {"exit": code, "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}


class Cli:
    name = "cli"

    def __init__(self, seed, pinned):
        self.pinned = pinned["cli"]
        rng = random.Random(seed)
        self.requests = []
        for _ in range(CLI_ROUNDS):
            round_ = cli_argvs()
            rng.shuffle(round_)
            self.requests += round_
        for argv in self.requests:
            if " ".join(argv) not in self.pinned:
                raise ValueError(f"no pinned output for {' '.join(argv)}")

    def call(self, argv):
        return run_cli(argv)

    def check(self, argv, out):
        if cli_digest(*out) != self.pinned[" ".join(argv)]:
            return f"output of `tilekit {' '.join(argv)}` differs from the pinned bytes"
        return None


WORKLOADS = {w.name: w for w in (Sweep3d, Zline, Periodic, Cli)}


def make(name, seed):
    return WORKLOADS[name](seed, load_pinned())
