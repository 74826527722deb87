"""Checks of the benchmark itself.

    PYTHONPATH=src python3 bench/selfcheck.py

1. A planted wrong answer makes fail_frac greater than 0 on every workload,
   and the same requests without the plant have fail_frac 0.
2. The tracer's counts for frame 0 of sweep3d at max_index 24 equal a direct
   count at the same bound and the ROADMAP's baseline counts.

Exits 0 when every check holds.  Takes about a minute.
"""

from __future__ import annotations

import dataclasses
import sys

import tilekit as tk

import workloads
from tracer import Tracer, replace_everywhere
from worker import Calibration, check_pass, timed_pass

MAX_INDEX = 24
# ROADMAP baseline at MAX_INDEX.  feasible and productive as counted by the
# tracer: lattices that pass the injectivity and divisibility filters, and
# those with at least one solution
BASELINE_COUNTS = {"candidates": 4396, "feasible": 3217, "productive": 534,
                   "raw_solutions": 3624, "distinct": 844}


def _drop_last(found):
    return found[:-1]


def _deny_tiling(result):
    return dataclasses.replace(result, cotile=None)


def _identity_lattice(lattice):
    return tk.Lattice.identity(lattice.dim)


# workload -> (function to plant a wrong answer in, how to corrupt its result,
#              which requests to run)
PLANTS = {
    "sweep3d": (tk.search_periodic_cotile, _drop_last, lambda reqs: reqs[:3]),
    "zline": (tk.search_Z_cotile, _deny_tiling,
              lambda reqs: [t for t in reqs if t.diameter() <= 3]),
    "periodic": (tk.stabilizer, _identity_lattice,
                 lambda reqs: sorted(reqs, key=lambda r: r.cotile.lattice.index())[:5]),
    "cli": (tk.stabilizer, _identity_lattice, lambda reqs: reqs[:len(workloads.cli_argvs())]),
}


def fail_frac(workload):
    timings, outputs = timed_pass(workload, Calibration())
    return check_pass(workload, outputs, []) / len(timings)


def planted_answers_fail():
    ok = True
    for name, (original, corrupt, pick) in PLANTS.items():
        workload = workloads.make(name, seed=0)
        workload.requests = pick(workload.requests)
        clean = fail_frac(workload)

        def planted(*args, **kwargs):
            return corrupt(original(*args, **kwargs))

        restore = replace_everywhere(original, planted)
        try:
            wrong = fail_frac(workload)
        finally:
            for owner, attr, value in restore:
                setattr(owner, attr, value)
        good = clean == 0 and wrong > 0
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {name}: fail_frac {clean} clean, "
              f"{wrong:.3f} with a wrong answer planted in {original.__name__}")
    return ok


def direct_counts(tiles):
    counts = dict.fromkeys(BASELINE_COUNTS, 0)
    for n in range(tiles[0].size, MAX_INDEX + 1, tiles[0].size):
        for lat in tk.enumerate_sublattices(tiles.dim, n):
            counts["candidates"] += 1
            if tk.SearchProblem.build(tiles, lat).feasible:
                counts["feasible"] += 1
            found = tk.solve_quotient(tiles, lat)
            counts["raw_solutions"] += len(found)
            counts["productive"] += 1 if found else 0
    counts["distinct"] = len(tk.search_periodic_cotile(tiles, MAX_INDEX))
    return counts


def traced_counts_match():
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    tiles = workloads.box_pair_in(identity)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.request(0):
            tk.search_periodic_cotile(tiles, MAX_INDEX, mode="all")
    finally:
        tracer.uninstall()
    traced = {k: tracer.counts[k] for k in BASELINE_COUNTS}
    direct = direct_counts(tiles)
    ok = traced == direct == BASELINE_COUNTS and not tracer.absent
    print(f"{'ok  ' if ok else 'FAIL'} sweep3d frame 0 at max_index {MAX_INDEX}: "
          f"traced {traced}, direct {direct}, baseline {BASELINE_COUNTS}, "
          f"absent {tracer.absent}")
    return ok


def main():
    ok = planted_answers_fail()
    ok &= traced_counts_match()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
