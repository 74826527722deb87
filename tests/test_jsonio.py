import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tilekit import jsonio
from tilekit.errors import InputContractError
from tilekit.lattice import Lattice, PeriodicSet, hnf
from tilekit.tiles import PeriodicRationalFunction, Tile, TileTuple, WeightedTile
from tilekit.torsion import MixedPeriodicSet, MixedTile
from conftest import box_cotile, box_pair, canonical_residues, hnf_lattices, six_block_fn


def _round_trip(obj):
    doc = jsonio.to_document(obj)
    assert doc["schema"] == "tilekit/1"
    back = jsonio.from_document(json.loads(json.dumps(doc)))
    return back


def test_round_trip_all_kinds():
    objs = [
        Lattice.diagonal([2, 2, 1]),
        hnf(2, [(2, 0), (1, 3)]),
        box_cotile(),
        box_pair()[0],
        box_pair(),
        WeightedTile.make(1, {(0,): 1, (4,): -2}),
        six_block_fn(),
        MixedTile.make(3, [(0, 0), (0, 1), (0, 2)]),
        MixedPeriodicSet.make(3, 4, [(0, 1), (2, 2)]),
    ]
    for obj in objs:
        assert _round_trip(obj) == obj


def test_kind_inference_without_discriminator():
    doc = jsonio.to_document(box_cotile())
    del doc["kind"]
    assert jsonio.from_document(doc) == box_cotile()
    doc = jsonio.to_document(box_pair()[0])
    del doc["kind"]
    assert jsonio.from_document(doc) == box_pair()[0]


def test_non_canonical_input_is_canonicalized():
    doc = {"kind": "lattice", "dim": 2, "basis": [[1, 3], [2, 0]]}
    assert jsonio.from_document(doc) == hnf(2, [(2, 0), (1, 3)])
    doc = {"kind": "periodic_set",
           "lattice": {"kind": "lattice", "dim": 1, "basis": [[2]]},
           "members": [[5]]}
    assert jsonio.from_document(doc).members == frozenset({(1,)})


def test_rational_encoding():
    fn = PeriodicRationalFunction.make(
        Lattice.diagonal([2]), {(0,): Fraction(1, 2), (1,): Fraction(-3)})
    doc = jsonio.to_document(fn)
    values = dict((tuple(r), v) for r, v in doc["values"])
    assert values[(0,)] == "1/2"
    assert values[(1,)] == -3
    assert _round_trip(fn) == fn


def test_comment_field_passthrough(tmp_path):
    # a hand-written "comment" key is ignored on reading
    path = tmp_path / "obj.json"
    doc = dict(jsonio.to_document(box_cotile()), comment="lattice co-tile fixture")
    path.write_text(json.dumps(doc))
    assert jsonio.load(path) == box_cotile()


def test_fixture_corpus_loads(fixtures_dir):
    for path in sorted(fixtures_dir.glob("*.json")):
        obj = jsonio.load(path)
        assert obj is not None, path


@st.composite
def _documents(draw):
    """One object of every document kind, drawn."""
    lat = draw(hnf_lattices(24))
    d = lat.dim
    point = st.tuples(*[st.integers(-4, 4)] * d)
    residues = canonical_residues(lat)
    tile = Tile.make(d, draw(st.sets(point, min_size=1, max_size=5)) | {(0,) * d})
    fraction = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    p = draw(st.sampled_from((2, 3, 5, 7)))
    mixed_point = st.tuples(st.integers(-4, 4), st.integers(0, p - 1))
    return [
        lat,
        PeriodicSet.make(lat, draw(st.sets(st.sampled_from(residues)))),
        tile,
        TileTuple.make([tile, Tile.make(d, [(0,) * d])]),
        WeightedTile.make(d, draw(st.dictionaries(point, st.integers(-3, 3), max_size=4))),
        PeriodicRationalFunction.make(lat, {r: draw(fraction) for r in residues}),
        MixedTile.make(p, draw(st.sets(mixed_point, min_size=1, max_size=5))),
        MixedPeriodicSet.make(p, draw(st.integers(1, 6)), draw(st.sets(mixed_point, max_size=6))),
    ]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_documents())
def test_round_trip_every_kind_drawn(objs):
    kinds = set()
    for obj in objs:
        kinds.add(jsonio.to_document(obj)["kind"])
        assert _round_trip(obj) == obj
    assert len(kinds) == len(objs)


def _function_document(values):
    return {"kind": "function", "lattice": {"kind": "lattice", "dim": 1, "basis": [[2]]},
            "values": values}


def test_conflicting_function_values_are_an_input_error():
    # [2] reduces to the residue [0] of 2Z, so the first two entries clash
    with pytest.raises(InputContractError, match=r"residue \(0,\) has two values, 1 and 0"):
        jsonio.from_document(_function_document([[[0], 1], [[2], 0], [[1], 0]]))
    fn = jsonio.from_document(_function_document([[[0], 1], [[2], "1/1"], [[-1], "1/2"]]))
    assert fn == PeriodicRationalFunction.make(
        Lattice.diagonal([2]), {(0,): 1, (1,): Fraction(1, 2)})


def test_one_rational_parser():
    cases = {3: 3, -2: -2, 1.5: Fraction(3, 2), "7": 7, "1/2": Fraction(1, 2),
             " -3/4 ": Fraction(-3, 4), "1/-2": Fraction(-1, 2), "0.25": Fraction(1, 4),
             "-.5": Fraction(-1, 2)}
    for text, value in cases.items():
        assert jsonio.parse_rational(text) == value
    for bad in ("1/0", "0/0", "abc", "", "1/2/3", "1e3", "inf", "nan", None, True, [1],
                float("inf"), float("nan"), "9" * 5000):
        with pytest.raises(InputContractError):
            jsonio.parse_rational(bad)
    with pytest.raises(InputContractError, match="zero denominator in '1/0'"):
        jsonio.from_document(_function_document([[[0], "1/0"]]))
