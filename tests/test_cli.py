import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tilekit import cli, jsonio
from tilekit.cli import main
from tilekit.errors import InternalError
from tilekit.lattice import Lattice, PeriodicSet
from tilekit.solve import Z_DECIDER_MAX_DIAM
from tilekit.tiles import Tile, TileTuple
from conftest import FIXTURES

ROOT = FIXTURES.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fx(name):
    return str(FIXTURES / name)


def test_verify_box_pair(capsys):
    code, out, _ = run(capsys, "verify",
                       "--tiles", fx("box_pair_z3_tiles.json"),
                       "--cotile", fx("box_pair_z3_cotile.json"))
    assert code == 0
    assert "holds" in out


def test_verify_level(capsys):
    code, out, _ = run(capsys, "verify", "--json",
                       "--tiles", fx("six_block_tile.json"),
                       "--cotile", fx("six_block_fn.json"),
                       "--level", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["schema"] == "tilekit/1"


def test_verify_false_exit_code(capsys, tmp_path):
    bad = PeriodicSet.make(Lattice.diagonal([2, 2, 1]), [(0, 0, 0), (1, 0, 0)])
    path = tmp_path / "bad.json"
    jsonio.dump(bad, path)
    code, out, _ = run(capsys, "verify", "--json",
                       "--tiles", fx("box_pair_z3_tiles.json"),
                       "--cotile", str(path))
    assert code == 3
    doc = json.loads(out)
    assert doc["ok"] is False and doc["defects"]


def test_solve_z_no_tiling(capsys):
    code, out, _ = run(capsys, "solve-z", "--tile", fx("six_block_tile.json"))
    assert code == 3
    assert "NO-TILING" in out


def test_solve_z_round_trip(capsys, tmp_path):
    tile = Tile.make(1, [(0,), (2,)])
    path = tmp_path / "tile.json"
    jsonio.dump(tile, path)
    code, out, _ = run(capsys, "--json", "solve-z", "--tile", str(path))
    assert code == 0
    doc = json.loads(out)
    cot = jsonio.from_document(doc["cotile"])
    cot_path = tmp_path / "cot.json"
    jsonio.dump(cot, cot_path)
    code2, out2, _ = run(capsys, "verify", "--tiles", str(path), "--cotile", str(cot_path))
    assert code2 == 0


def test_solve_with_bound(capsys):
    code, out, _ = run(capsys, "--json", "solve",
                       "--tiles", fx("box_pair_z3_tiles.json"),
                       "--max-index", "4", "--all")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["solutions"]) >= 4
    for sol in doc["solutions"]:
        assert jsonio.from_document(sol["lattice"]).is_full_rank


def test_solve_requires_max_index(capsys):
    code, _, err = run(capsys, "solve", "--tiles", fx("box_pair_z3_tiles.json"))
    assert code == 1
    assert "max-index" in err


def test_solve_refuses_a_zero_dimensional_tile(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text('{"kind": "tile", "dim": 0, "points": [[]]}')
    code, out, err = run(capsys, "solve", "--max-index", "3", "--tiles", str(path))
    assert code == 2 and out == ""
    assert err == "tilekit: input contract violation: dimension must be positive\n"


def _zero_dimensional_documents(tmp_path, members):
    tile = _write(tmp_path / "t.json", {"kind": "tile", "dim": 0, "points": [[]]})
    cotile = _write(tmp_path / "p.json", {
        "kind": "periodic_set", "members": members,
        "lattice": {"kind": "lattice", "dim": 0, "basis": []}})
    return tile, cotile


def test_verify_on_zero_dimensional_documents(capsys, tmp_path):
    # Z^0 / 0 is the one-element group, and its one translation table is (0,)
    tile, cotile = _zero_dimensional_documents(tmp_path, [[]])
    assert run(capsys, "verify", "--tiles", tile, "--cotile", cotile) == (
        0, "joint tiling: holds\n", "")
    tile, cotile = _zero_dimensional_documents(tmp_path, [])
    code, _, err = run(capsys, "verify", "--tiles", tile, "--cotile", cotile)
    assert code == 3 and err == ""


def test_decompose_on_zero_dimensional_documents(capsys, tmp_path):
    tile, cotile = _zero_dimensional_documents(tmp_path, [[]])
    code, out, err = run(capsys, "--json", "decompose", "--tiles", tile, "--cotile", cotile)
    assert code == 0 and err == ""
    assert json.loads(out)["report"]["ok"] is True


def test_solve_exhausted_exit_code(capsys):
    code, _, _ = run(capsys, "solve", "--tiles", fx("six_block_tile.json"),
                     "--max-index", "24")
    assert code == 3


def test_solve_one_point_tile_large_bound(capsys, tmp_path):
    path = tmp_path / "point.json"
    jsonio.dump(Tile.make(1, [(0,)]), path)
    code, out, err = run(capsys, "solve", "--tiles", str(path), "--max-index", "1100")
    assert code == 0, err
    assert out.splitlines() == ["1 solution(s) with stabilizer index <= 1100",
                                "  lattice [[1]] members [(0,)]"]


def test_independent_and_star(capsys):
    code, out, _ = run(capsys, "--json", "independent",
                       "--tiles", fx("box_pair_z3_tiles.json"))
    assert code == 0 and json.loads(out)["independent"] is True
    code, out, _ = run(capsys, "--json", "star",
                       "--tiles", fx("box_pair_z3_tiles.json"))
    assert code == 0 and json.loads(out)["property_star"] is True


def test_decompose_command(capsys):
    code, out, _ = run(capsys, "--json", "decompose",
                       "--tiles", fx("box_pair_z3_tiles.json"),
                       "--cotile", fx("box_pair_z3_cotile.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["q"] == 6
    assert doc["report"]["ok"] is True
    assert len(doc["nodes"]) == 12


def test_decompose_pins_fractional_nodes_at_level_two(capsys, tmp_path):
    # the six-point block and {0, 3, 5, 6, 8, 11} both convolve with twice the
    # six-block function to 2; q * v has order 3 modulo 18Z, so nodes take thirds
    tiles = _write(tmp_path / "t.json", {"kind": "tile_tuple", "tiles": [
        {"kind": "tile", "dim": 1, "points": [[0], [1], [3], [4], [6], [7]]},
        {"kind": "tile", "dim": 1, "points": [[0], [3], [5], [6], [8], [11]]}]})
    six_block_fn = [(1 if r % 2 == 0 else 0) - (1 if r % 9 in (0, 1, 2) else 0) for r in range(18)]
    fn = _write(tmp_path / "f.json", {
        "kind": "function", "lattice": {"kind": "lattice", "dim": 1, "basis": [[18]]},
        "values": [[[r], 2 * v] for r, v in enumerate(six_block_fn)]})
    argv = ["decompose", "--tiles", tiles, "--cotile", fn, "--level", "2", "--level", "2"]
    assert run(capsys, *argv) == (
        0, "decomposition with q = 614889782588491410: 30 nodes, identities all hold\n", "")
    code, out, err = run(capsys, "--json", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "4561d8a0c3b99f119d984a306a046792f668bacc86c5536c8757f112d7d1fdac"
    values = {v for node in json.loads(out)["nodes"] for _, v in node["values"]}
    assert "-2/3" in values and "4/3" in values


def test_dilate_and_check(capsys):
    code, out, _ = run(capsys, "--json", "dilate",
                       "--tile", fx("box_flat_z3_tile.json"), "-r", "7",
                       "--cotile", fx("box_pair_z3_cotile.json"))
    assert code == 0 and json.loads(out)["ok"] is True
    code, _, _ = run(capsys, "dilate", "--tile", fx("six_block_tile.json"), "-r", "3")
    assert code == 0


def test_brothers_command(capsys):
    code, out, _ = run(capsys, "--json", "brothers",
                       "--tile", fx("domino_z2_tile.json"),
                       "--cotile", fx("domino_z2_cotile.json"))
    assert code == 0
    doc = json.loads(out)
    assert all(doc["verification"].values())
    brothers = jsonio.from_document(doc["brothers"])
    assert len(brothers) == 1


def test_zp_command(capsys):
    code, out, _ = run(capsys, "--json", "zp", "--p", "3",
                       "--tile", fx("full_fiber_tile_p3.json"),
                       "--cotile", fx("full_fiber_cotile_p3.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "full_fiber"
    assert doc["verdict"]["periodic"] is True
    code, out, _ = run(capsys, "--json", "zp", "--p", "2",
                       "--tile", fx("generic_tile_p2.json"),
                       "--cotile", fx("generic_cotile_p2.json"))
    assert code == 0 and json.loads(out)["class"] == "generic"


def test_lift_command(capsys):
    code, out, _ = run(capsys, "--json", "lift",
                       "--tiles", fx("domino_z2_tile.json"),
                       "--cotile", fx("domino_z2_cotile.json"),
                       "--gamma0", fx("vertical_axis_z2.json"))
    assert code == 0
    cot = jsonio.from_document(json.loads(out)["cotile"])
    assert cot.lattice.is_full_rank


def test_piecewise_command(capsys):
    code, out, _ = run(capsys, "--json", "piecewise",
                       "--tiles", fx("domino_z2_tile.json"),
                       "--pieces", fx("even_cols_even_rows.json"),
                       fx("even_cols_odd_rows.json"),
                       "--stabilizers", fx("vertical_two_z2.json"),
                       fx("horizontal_two_z2.json"))
    assert code == 0
    cot = jsonio.from_document(json.loads(out)["cotile"])
    assert cot.lattice.is_full_rank


def test_stabilizer_command(capsys):
    code, out, _ = run(capsys, "--json", "stabilizer",
                       "--cotile", fx("box_pair_z3_cotile.json"))
    assert code == 0
    stab = jsonio.from_document(json.loads(out)["stabilizer"])
    assert stab == Lattice.diagonal([2, 2, 1])


def test_render_ascii(capsys):
    code, out, _ = run(capsys, "verify",
                       "--tiles", fx("domino_z2_tile.json"),
                       "--cotile", fx("domino_z2_cotile.json"),
                       "--render", "ascii", "--window", "3")
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 7 and all(len(l) == 7 for l in lines)


def test_render_svg(capsys):
    code, out, _ = run(capsys, "verify",
                       "--tiles", fx("domino_z2_tile.json"),
                       "--cotile", fx("domino_z2_cotile.json"),
                       "--render", "svg", "--window", "2")
    assert code == 0
    assert "<svg" in out


def test_negative_window_is_usage_error(capsys):
    for argv in (["verify", "--tiles", fx("domino_z2_tile.json"),
                  "--cotile", fx("domino_z2_cotile.json")],
                 ["solve", "--tiles", fx("domino_z2_tile.json"), "--max-index", "2"]):
        for render in ("svg", "ascii"):
            code, out, err = run(capsys, *argv, "--render", render, "--window", "-2")
            assert code == 1 and out == ""
            assert err == "tilekit: --window must be non-negative, got -2\n"


# stdout sha256 of --render on 1-D, 2-D and 3-D inputs; {tile} and {cotile}
# name the 1-D tile {0, 2} and its co-tile {0, 1} + 4Z
RENDER_PINS = {
    "verify --tiles {tile} --cotile {cotile} --render ascii --window 6":
        "4ce5d1e3be515fb64b8637fd5c6037cb540a6e8cd8026a17b229738ea1a9a891",
    "verify --tiles {tile} --cotile {cotile} --render svg --window 3":
        "5638d86c1b81d7db7e4c89021ae5899de8b87030fe0d3303d7c17470c3adf5e3",
    "solve --tiles {tile} --max-index 4 --render ascii --window 6":
        "4b7eb92d02ccb069f59061e39a760fee7e89cab87e8bd85902a47db1c607e80e",
    "verify --tiles fixtures/domino_z2_tile.json --cotile fixtures/domino_z2_cotile.json "
    "--render ascii --window 3":
        "92e5ad583b7ec83279e3a1e9dd9220e73e91f70c3c44cd3fae36a6b941869f2f",
    "verify --tiles fixtures/domino_z2_tile.json --cotile fixtures/domino_z2_cotile.json "
    "--render svg --window 2":
        "6b47bcd2ab4845ce09c04ea4409cd599b88f09ae99495e9282e23e1c7045ff39",
    "verify --tiles fixtures/line_triple_z2_tiles.json "
    "--cotile fixtures/line_triple_z2_cotile.json --render ascii --window 3":
        "47566a1057b29b3d83014a3e37f5bc12b825bf11107dd778362f2b34dcc4d047",
    "solve --tiles fixtures/domino_z2_tile.json --max-index 2 --render ascii --window 3":
        "1d6edbc9368fcb78f57898c81e984bb13aafb789c0f252bf707fdd616ec75d45",
    "verify --tiles fixtures/box_pair_z3_tiles.json --cotile fixtures/box_pair_z3_cotile.json "
    "--render ascii --window 2":
        "bec061575eed04eb996c65defbb6c79155ebfc4f0c3963bde5830fcf602dac83",
    "verify --tiles fixtures/box_pair_z3_tiles.json --cotile fixtures/box_pair_z3_cotile.json "
    "--render svg --window 2":
        "0a14a18ac6fd2c07f5eeacdfa11d409abef24e90bb84ceb64595cb15b302e526",
    "solve --tiles fixtures/box_pair_z3_tiles.json --max-index 4 --render ascii --window 2":
        "1c71cfe2b0c1a30cfd74e47495db44fd4c7d7cf9a9d362714e35d65c274d7ad9",
}


@pytest.mark.parametrize("command", sorted(RENDER_PINS))
def test_render_prints_pinned_bytes(command, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    tile, cotile = tmp_path / "tile_z.json", tmp_path / "cotile_z.json"
    jsonio.dump(Tile.make(1, [(0,), (2,)]), tile)
    jsonio.dump(PeriodicSet.make(Lattice.diagonal([4]), [(0,), (1,)]), cotile)
    code, out, _ = run(capsys, *command.format(tile=tile, cotile=cotile).split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RENDER_PINS[command]


def test_malformed_json_is_usage_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", "--tiles", str(path),
                       "--cotile", fx("box_pair_z3_cotile.json"))
    assert code == 1
    assert "line" in err


def test_dimension_mismatch_is_contract_error(capsys):
    code, _, err = run(capsys, "verify",
                       "--tiles", fx("six_block_tile.json"),
                       "--cotile", fx("box_pair_z3_cotile.json"))
    assert code == 2


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    assert main(["--seed", "1", "stabilizer", "--cotile", fx("box_pair_z3_cotile.json")]) == 1


def _readme_commands():
    """The argv of every command in the README's command-line block."""
    text = (FIXTURES.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split("#")[0].split()[1:]
            for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_swapped_documents_never_escape_main(capsys):
    """Each fixture argument of each README command, replaced by every other
    fixture: main returns a documented exit code and never raises."""
    fixtures = sorted(str(p) for p in FIXTURES.glob("*.json"))
    runs = 0
    for cmd in _readme_commands():
        argv = [fx(a.removeprefix("fixtures/")) if a.startswith("fixtures/") else a
                for a in cmd]
        for i, arg in enumerate(argv):
            if arg not in fixtures:
                continue
            for other in fixtures:
                if other != arg:
                    swapped = argv[:i] + [other] + argv[i + 1:]
                    assert main(swapped) in (0, 1, 2, 3), swapped
                    runs += 1
        capsys.readouterr()
    # the README block has 25 fixture arguments
    assert runs == 25 * (len(fixtures) - 1)


def test_level_that_is_not_a_fraction_is_usage_error(capsys):
    for argv in (["verify", "--tiles", fx("six_block_tile.json"),
                  "--cotile", fx("six_block_fn.json")],
                 ["decompose", "--tiles", fx("box_pair_z3_tiles.json"),
                  "--cotile", fx("box_pair_z3_cotile.json")],
                 ["dilate", "--tile", fx("box_flat_z3_tile.json"), "-r", "7",
                  "--cotile", fx("box_pair_z3_cotile.json")]):
        code, _, err = run(capsys, *argv, "--level", "abc")
        assert code == 1 and "invalid Fraction value: 'abc'" in err


def test_document_that_cannot_be_read_or_built_is_usage_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"kind": "periodic_set", "members": [[0, 0]],
                                "lattice": {"kind": "lattice", "dim": 2, "basis": [[1, 0]]}}))
    for path in (deep, flat):
        code, _, err = run(capsys, "stabilizer", "--cotile", str(path))
        assert code == 1 and err.startswith(f"tilekit: cannot parse {path}: ")


def test_wrong_document_kind_is_usage_error(capsys):
    code, _, err = run(capsys, "brothers", "--tile", fx("domino_z2_tile.json"),
                       "--cotile", fx("six_block_fn.json"))
    assert code == 1
    assert err == (f"tilekit: {fx('six_block_fn.json')}: expected PeriodicSet, "
                   "got PeriodicRationalFunction\n")


def test_internal_error_is_one_line_exit_4(capsys, monkeypatch):
    def broken(aset):
        raise InternalError("planted failure")

    monkeypatch.setattr(cli, "stabilizer", broken)
    code, out, err = run(capsys, "stabilizer", "--cotile", fx("box_pair_z3_cotile.json"))
    assert code == 4 and out == ""
    assert err == "tilekit: internal error (a bug in tilekit): InternalError: planted failure\n"


def test_verify_level_checks_every_tile_of_a_tuple(capsys, tmp_path):
    tiles, cotile = tmp_path / "tiles.json", tmp_path / "cotile.json"
    jsonio.dump(TileTuple.make([Tile.make(1, [(0,), (1,)]), Tile.make(1, [(0,), (2,)])]), tiles)
    jsonio.dump(PeriodicSet.make(Lattice.diagonal([2]), [(0,)]), cotile)
    argv = ("verify", "--tiles", str(tiles), "--cotile", str(cotile), "--level", "1")
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert out.splitlines() == ["level-1 equation: fails", "  first failing tile: 1",
                                "  defect at (0,): 2", "  defect at (1,): 0"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 3
    doc = json.loads(out)
    assert doc["ok"] is False and doc["failing_tile"] == 1
    assert doc["defects"] == [{"residue": [0], "value": "2"}, {"residue": [1], "value": "0"}]


def test_verify_unequal_sizes_prints_a_plain_note(tmp_path):
    # in a process of its own, so that Python's default warning display,
    # not pytest's capture, would show a raw UserWarning
    tiles, cotile = tmp_path / "tiles.json", tmp_path / "cotile.json"
    jsonio.dump(TileTuple.make([Tile.make(1, [(0,), (1,)]), Tile.make(1, [(0,)])]), tiles)
    jsonio.dump(PeriodicSet.make(Lattice.diagonal([2]), [(0,)]), cotile)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-m", "tilekit.cli", "verify",
                          "--tiles", str(tiles), "--cotile", str(cotile)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 3
    assert "UserWarning" not in run.stderr
    assert run.stderr == ("tilekit: note: tiles have unequal sizes, "
                          "so no joint co-tile can exist\n")


def test_package_runs_as_a_module():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-m", "tilekit", "--help"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0 and run.stderr == ""
    assert run.stdout.startswith("usage: ") and "solve-z" in run.stdout


def test_verify_level_on_a_tuple_that_holds_and_on_one_tile(capsys):
    code, out, _ = run(capsys, "verify", "--json",
                       "--tiles", fx("box_pair_z3_tiles.json"),
                       "--cotile", fx("box_pair_z3_cotile.json"), "--level", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["failing_tile"] is None and doc["defects"] == []
    # a single tile reports no failing_tile, as before
    code, out, _ = run(capsys, "verify", "--json",
                       "--tiles", fx("six_block_tile.json"),
                       "--cotile", fx("six_block_fn.json"), "--level", "1")
    assert code == 0 and "failing_tile" not in json.loads(out)


def test_not_a_cotile_message_prints_rationals(capsys):
    code, out, err = run(capsys, "lift",
                         "--tiles", fx("line_triple_z2_tiles.json"),
                         "--cotile", fx("domino_z2_cotile.json"),
                         "--gamma0", fx("vertical_axis_z2.json"))
    assert code == 2 and out == ""
    assert err == ("tilekit: input contract violation: "
                   "tile 0 fails: ((0, 0), 3), ((1, 0), 0)\n")


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_solve_z_above_the_diameter_bound_is_contract_violation(capsys, tmp_path):
    # refused before the 2^diam automaton states are allocated; a tile at the
    # bound takes tens of seconds, so none is run here
    diam = Z_DECIDER_MAX_DIAM + 1
    tile = _write(tmp_path / "tile.json", {"kind": "tile", "dim": 1,
                                           "points": [[0], [1], [diam]]})
    code, out, err = run(capsys, "solve-z", "--tile", tile)
    assert code == 2 and out == ""
    assert err == (f"tilekit: input contract violation: tile diameter {diam} "
                   f"is above {Z_DECIDER_MAX_DIAM}\n")


def test_zp_ring_inverse_above_the_limit_is_contract_violation(capsys, tmp_path):
    # {(0, 0)} tiles with the whole fiber; its verdict needs the inverse of
    # {0} in Z/103Z, the first prime above the ring-inverse limit
    tile = _write(tmp_path / "tile.json", {"kind": "mixed_tile", "p": 103, "points": [[0, 0]]})
    cot = _write(tmp_path / "cot.json", {"kind": "mixed_periodic_set", "p": 103, "period": 1,
                                         "members": [[0, t] for t in range(103)]})
    code, out, err = run(capsys, "zp", "--p", "103", "--tile", tile, "--cotile", cot)
    assert code == 2 and out == ""
    assert err == "tilekit: input contract violation: ring inverse too large: p = 103 is above 101\n"
    code, out, err = run(capsys, "zp", "--p", "103", "--tile", tile)
    assert (code, out, err) == (0, "classification: generic\n", "")


def test_zp_mismatched_moduli_is_contract_violation(capsys, tmp_path):
    tile = _write(tmp_path / "tile.json", {"kind": "mixed_tile", "p": 2,
                                           "points": [[0, 0], [0, 1]]})
    cot = _write(tmp_path / "cot.json", {"kind": "mixed_periodic_set", "p": 3, "period": 1,
                                         "members": [[0, 0]]})
    code, out, err = run(capsys, "zp", "--p", "2", "--tile", tile, "--cotile", cot)
    assert (code, out, err) == (2, "", "tilekit: input contract violation: mismatched moduli\n")


def test_zero_denominator_is_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "verify", "--tiles", fx("six_block_tile.json"),
                         "--cotile", fx("six_block_fn.json"), "--level", "1/0")
    assert code == 1 and out == ""
    assert err.endswith("error: argument --level: invalid Fraction value: '1/0'\n")
    path = _write(tmp_path / "fn.json", {
        "kind": "function", "lattice": {"kind": "lattice", "dim": 1, "basis": [[2]]},
        "values": [[[0], "1/0"], [[1], 0]]})
    code, out, err = run(capsys, "stabilizer", "--cotile", path)
    assert code == 1 and out == ""
    assert err == f"tilekit: cannot parse {path}: zero denominator in '1/0'\n"


def test_document_integers_read_integer_valued_floats_only(capsys, tmp_path):
    # 1.0 reads as 1 wherever a document holds an integer; 0.5, true and "1"
    # are not integers, which makes a document that cannot be built
    def tile(points):
        return _write(tmp_path / "tile.json", {"kind": "tile", "dim": 1, "points": points})

    def pset(members):
        return _write(tmp_path / "pset.json", {
            "kind": "periodic_set", "members": members,
            "lattice": {"kind": "lattice", "dim": 1.0, "basis": [[2.0]]}})

    def results(path, *commands):
        return [run(capsys, *argv, path) for argv in commands]

    tile_commands = (("solve", "--max-index", "4", "--all", "--tiles"), ("solve-z", "--tile"))
    assert results(tile([[0], [1.0]]), *tile_commands) == results(tile([[0], [1]]), *tile_commands)
    set_commands = (("stabilizer", "--cotile"), ("verify", "--tiles", fx("six_block_tile.json"),
                                                 "--cotile"))
    assert results(pset([[0.0]]), *set_commands) == results(pset([[0]]), *set_commands)
    for bad, text in ((0.5, "0.5"), (True, "True"), ("1", "'1'")):
        for path, commands in ((tile([[0], [bad]]), tile_commands),
                               (pset([[bad]]), set_commands)):
            for code, out, err in results(path, *commands):
                assert (code, out) == (1, "")
                assert err == f"tilekit: cannot parse {path}: {text} is not an integer\n"


def test_conflicting_function_values_are_usage_error(capsys, tmp_path):
    # on 2Z the entries [0] -> 1 and [2] -> 0 name one residue; loading them
    # as the zero function would make verify report defects of 0
    path = _write(tmp_path / "fn.json", {
        "kind": "function", "lattice": {"kind": "lattice", "dim": 1, "basis": [[2]]},
        "values": [[[0], 1], [[2], 0], [[1], 0]]})
    for argv in (("verify", "--tiles", fx("six_block_tile.json"), "--cotile", path,
                  "--level", "1"),
                 ("stabilizer", "--cotile", path)):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"tilekit: cannot parse {path}: residue (0,) has two values, 1 and 0\n"


def _assert_no_escape(argv, docs):
    """main(argv) exits 0, 1, 2 or 3, never 4, and prints no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, docs, err.getvalue())
    assert "Traceback" not in err.getvalue()


_BAD_VALUES = ("1/0", "-2/0", "1/-0", "x", "", "1e999", float("inf"), True, None, [1])


def _floated(doc, rng, rate=0.05):
    """doc with now and then an integer written as a float: an integer-valued
    one such as 2.0, which reads as that integer, or one such as 2.5, which is
    not an integer."""
    if isinstance(doc, dict):
        return {k: _floated(v, rng, rate) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_floated(v, rng, rate) for v in doc]
    if type(doc) is int and rng.random() < rate:
        return doc + rng.choice((0.0, 0.5))
    return doc


def _lattice_document(rng, dim):
    """Mostly dim vectors with a nonzero entry at their own index, so most
    bases have full rank; else fewer or more vectors, and now and then a
    vector of another length or a wrong dim field."""
    count = dim if rng.random() < 0.7 else rng.randint(0, dim + 1)
    vectors = []
    for j in range(count):
        n = dim + (rng.random() < 0.05)
        vectors.append([rng.choice((1, 2, 3, -2)) if i == j else rng.randint(-3, 3)
                        for i in range(n)])
    return {"kind": "lattice", "dim": dim + (rng.random() < 0.05), "basis": vectors}


@st.composite
def _function_documents(draw):
    """A function document over a drawn lattice: values as ints and p/q
    strings at residues drawn from a few points, so that repeated and
    non-canonical residues are common; in half the documents every point has
    one value, and in a quarter one value is not a rational (a zero
    denominator among them)."""
    # a seeded Random keeps the rates above; Hypothesis' own draws lean
    # toward their simplest values
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    dim = rng.randint(1, 2)
    points = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(rng.randint(1, 6))]
    values = [rng.choice((rng.randint(-3, 3), f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}"))
              for _ in points]
    if rng.random() < 0.5:
        values = [values[0]] * len(points)  # one value: repeated residues agree
    entries = [[points[i], values[i]] for i in rng.choices(range(len(points)), k=rng.randint(0, 5))]
    if rng.random() < 0.25:
        entries.insert(rng.randint(0, len(entries)), [rng.choice(points), rng.choice(_BAD_VALUES)])
    doc = {"kind": "function", "lattice": _lattice_document(rng, dim), "values": entries}
    floats = random.Random(draw(st.integers(0, 2 ** 32)))
    return _floated(doc, floats) if floats.random() < 1 / 3 else doc


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_function_documents(), st.sampled_from(["1", "2", "1/2", "1/0", "x"]),
       st.sampled_from(["six_block_tile.json", "domino_z2_tile.json"]))
def test_drawn_function_documents_never_escape_main(tmp_path_factory, doc, level, tiles):
    """verify --level, decompose and stabilizer on drawn function and lattice
    documents: exit 0, 1, 2 or 3, never 4 and never a traceback."""
    folder = tmp_path_factory.mktemp("fuzz")
    fn = _write(folder / "fn.json", doc)
    lat = _write(folder / "lat.json", doc["lattice"])
    for argv in (["verify", "--tiles", fx(tiles), "--cotile", fn, "--level", level],
                 ["decompose", "--tiles", fx(tiles), "--cotile", fn],
                 ["stabilizer", "--cotile", fn],
                 ["stabilizer", "--cotile", lat]):
        _assert_no_escape(argv, doc)


def _points(rng, dim, count):
    """count points near the origin; now and then one of another length."""
    return [[rng.randint(-2, 2) for _ in range(dim + (rng.random() < 0.03))]
            for _ in range(count)]


def _tile_document(rng, dim):
    """Mostly normalized (the origin first), now and then empty or not."""
    points = _points(rng, dim, rng.randint(0, 4))
    if rng.random() < 0.8:
        points.insert(0, [0] * dim)
    return {"kind": "tile", "dim": dim + (rng.random() < 0.03), "points": points}


def _periodic_set_document(rng, dim):
    return {"kind": "periodic_set", "lattice": _lattice_document(rng, dim),
            "members": _points(rng, dim, rng.randint(0, 4))}


def _box_tiling(rng, dim):
    """A box of at most four cells, a lattice co-tile of it presented on a
    refinement (split into one or two pieces) and a rank dim - 1 sublattice
    of its stabilizer."""
    sides = [rng.randint(1, 2) for _ in range(dim)]
    if dim == 3:
        sides[rng.randrange(dim)] = 1
    tile = [list(p) for p in itertools.product(*(range(s) for s in sides))]
    cols = [[s if i == j else 0 for i in range(dim)] for j, s in enumerate(sides)]
    if dim > 1:
        cols[1][0] = rng.randrange(sides[0])  # a shear along the first axis
    k = rng.randint(1, 2)
    refined = [[k * x for x in cols[0]]] + cols[1:]
    members = [[j * x for x in cols[0]] for j in range(k)]
    cut = rng.randint(1, len(members))

    def pset(part):
        return {"kind": "periodic_set", "lattice": {"kind": "lattice", "dim": dim,
                                                    "basis": refined}, "members": part}

    return ({"kind": "tile", "dim": dim, "points": tile}, pset(members),
            [pset(members[:cut])] + ([pset(members[cut:])] if members[cut:] else []),
            {"kind": "lattice", "dim": dim, "basis": refined[1:]})


def _mixed_documents(rng):
    """A mixed tile and a mixed periodic set, half the time a tiling: one
    point in each of m columns with whole fibers every m columns, or whole
    fibers in m columns with one point every m columns.  Small moduli, with a
    composite or nonpositive one now and then."""
    p = rng.choice((2, 3, 5, 7, 2, 3, 4, 1, 0))
    q, m = max(p, 1), rng.randint(1, 3)
    fibers = [[0, t] for t in range(q)]
    if rng.random() < 0.25:
        points, members = [[n, rng.randrange(q)] for n in range(m)], fibers
    elif rng.random() < 1 / 3:
        points, members = [[n, t] for n in range(m) for t in range(q)], [[0, rng.randrange(q)]]
    else:
        points = [[rng.randint(-2, 2), rng.randrange(q)] for _ in range(rng.randint(0, 4))]
        members = [[rng.randint(0, 3), rng.randrange(q)] for _ in range(rng.randint(0, 4))]
        m = rng.randint(-1, 3)
    return ({"kind": "mixed_tile", "p": p, "points": points},
            {"kind": "mixed_periodic_set", "p": p, "period": m, "members": members})


@st.composite
def _cli_documents(draw):
    """Tile, tuple, periodic-set, weighted-tile, lattice and mixed documents;
    in a third of the draws the tile, co-tile, pieces and gamma0 come from a
    real tiling by a box, so the commands get past their checks."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    dim = rng.randint(1, 3)
    if rng.random() < 1 / 3:
        tile, pset, pieces, gamma0 = _box_tiling(rng, dim)
    else:
        tile, pset = _tile_document(rng, dim), _periodic_set_document(rng, dim)
        pieces = [pset, _periodic_set_document(rng, dim)][:rng.randint(1, 2)]
        gamma0 = _lattice_document(rng, dim)
    tiles = [tile] + [_tile_document(rng, dim) for _ in range(rng.randint(0, dim))]
    weighted = {"kind": "weighted_tile", "dim": dim,
                "entries": [[p, rng.randint(-1, 2)] for p in _points(rng, dim, rng.randint(1, 3))]}
    mixed_tile, mixed_set = _mixed_documents(rng)
    docs = {"tile": tile, "tuple": {"kind": "tile_tuple", "tiles": tiles}, "pset": pset,
            "pieces": pieces, "gamma0": gamma0, "weighted": weighted,
            "mixed_tile": mixed_tile, "mixed_set": mixed_set,
            "max_index": str(rng.randint(1, 6)), "p": str(rng.choice((mixed_tile["p"], 3)))}
    floats = random.Random(draw(st.integers(0, 2 ** 32)))
    return _floated(docs, floats) if floats.random() < 1 / 3 else docs


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_cli_documents())
def test_drawn_documents_never_escape_main(tmp_path_factory, docs):
    """Every command on drawn tile, tuple, periodic-set, weighted-tile and
    mixed documents: exit 0, 1, 2 or 3, never 4 and never a traceback."""
    folder = tmp_path_factory.mktemp("fuzz")
    path = {name: _write(folder / f"{name}.json", docs[name])
            for name in ("tile", "tuple", "pset", "gamma0", "weighted", "mixed_tile", "mixed_set")}
    pieces = [_write(folder / f"piece{i}.json", d) for i, d in enumerate(docs["pieces"])]
    for argv in (["verify", "--tiles", path["tuple"], "--cotile", path["pset"]],
                 ["verify", "--tiles", path["weighted"], "--cotile", path["pset"], "--level", "1"],
                 ["solve", "--tiles", path["tile"], "--max-index", docs["max_index"]],
                 ["solve", "--tiles", path["tuple"], "--max-index", docs["max_index"]],
                 ["solve-z", "--tile", path["tile"]],
                 ["independent", "--tiles", path["tuple"]],
                 ["star", "--tiles", path["tuple"]],
                 ["brothers", "--tile", path["tile"], "--cotile", path["pset"]],
                 ["lift", "--tiles", path["tile"], "--cotile", path["pset"],
                  "--gamma0", path["gamma0"]],
                 ["piecewise", "--tiles", path["tile"], "--pieces", *pieces],
                 ["piecewise", "--tiles", path["tile"], "--pieces", *pieces,
                  "--stabilizers", *[path["gamma0"]] * len(pieces)],
                 ["stabilizer", "--cotile", path["pset"]],
                 ["zp", "--p", docs["p"], "--tile", path["mixed_tile"]],
                 ["zp", "--p", docs["p"], "--tile", path["mixed_tile"],
                  "--cotile", path["mixed_set"]]):
        _assert_no_escape(argv, docs)
