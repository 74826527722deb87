"""Recompute the pinned reference answers in pinned.json from the current code.

    PYTHONPATH=src python3 bench/pin.py

Run it only when a change of output is intended and reviewed: the benchmark
counts every request whose output differs from these pins as failed.
"""

from __future__ import annotations

import json

import tilekit as tk

import workloads as wl


def main():
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    found = tk.search_periodic_cotile(wl.box_pair_in(identity), wl.Sweep3d.max_index, mode="all")
    pinned = {
        "sweep3d": {"max_index": wl.Sweep3d.max_index, "distinct": len(found),
                    "frame0_sha256": wl.solutions_digest(wl.solution_keys(found, identity))},
        "zline": {"tiling_masks": sorted(wl.tile_mask(t) for t in wl.line_tiles()
                                         if tk.search_Z_cotile(t).cotile is not None)},
        "cli": {" ".join(argv): wl.cli_digest(*wl.run_cli(argv)) for argv in wl.cli_argvs()},
    }
    with open(wl.PINNED, "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
