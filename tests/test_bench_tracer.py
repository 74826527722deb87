"""Every target of bench/tracer.py still names a tilekit function or method,
and the sweep counts it takes from their return values stay as pinned.

A target the tracer cannot find is recorded as absent and its per-layer
metrics read 0, so a rename in tilekit would silently zero them.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import tilekit  # noqa: F401
import tilekit.cli  # noqa: F401
import tilekit.jsonio  # noqa: F401
from conftest import box_pair

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_every_tracer_target_resolves():
    tracer = _tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()


def test_sweep_counts_of_box_pair_frame_0():
    # The counts of sweep3d's frame 0: the tracer counts candidates by the
    # lattices enumerate_sublattices lists and feasible by the
    # SearchProblem.build calls that find the tuple feasible.  The sweep
    # skips the infeasible candidates before any build, so every build it
    # makes is feasible and each feasible lattice goes through
    # solve_quotient once.  The sweep is called through the package, whose
    # binding the tracer replaces.
    tracer = _tracer()
    tracer.install()
    try:
        found = tilekit.search_periodic_cotile(box_pair(), 12, mode="all")
    finally:
        tracer.uninstall()
    assert len(found) == 76
    counts = {k: tracer.counts[k] for k in
              ("candidates", "feasible", "productive", "raw_solutions", "distinct")}
    assert counts == {"candidates": 645, "feasible": 346, "productive": 63,
                      "raw_solutions": 316, "distinct": 76}


def test_sweep_of_box_pair_to_index_24():
    # bench/selfcheck.py's sweep: quotients up to index 24, among them the
    # p_0 = 1 shapes whose digit-0 blocks are single cells.  The digest is of
    # the all-mode output as (basis, sorted members) in output order,
    # recorded before residue numbers replaced residues in SearchProblem.
    tracer = _tracer()
    tracer.install()
    try:
        found = tilekit.search_periodic_cotile(box_pair(), 24, mode="all")
    finally:
        tracer.uninstall()
    keys = [[list(map(list, lat.basis)), [list(m) for m in aset.sorted_members]]
            for lat, aset in found]
    digest = hashlib.sha256(json.dumps(keys, separators=(",", ":")).encode()).hexdigest()
    assert digest == "3b42a68008b48872ed77bd1643f569ae7d9cce787b197b75fe33e8a087c98053"
    counts = {k: tracer.counts[k] for k in
              ("candidates", "feasible", "productive", "raw_solutions", "distinct")}
    assert counts == {"candidates": 4396, "feasible": 3217, "productive": 534,
                      "raw_solutions": 3624, "distinct": 844}
