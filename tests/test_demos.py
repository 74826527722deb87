"""Each demo exits 0, warns of nothing (it runs with -W error) and prints
exactly the bytes pinned here (sha256 of stdout).

A change that alters what a demo prints must re-pin its hash on purpose.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PINNED = {
    "01_tilings_and_verification":
        "f4e53e7bdaf64f8fda1d14833171980705c3d9831d31ad47d0dfe833eed16807",
    "02_searching_for_cotiles":
        "033d12cb0156d499b7e2c004b4fcdccd33d648133e12a4727affb2bf700f4edb",
    "03_periodic_decomposition":
        "744ff7c5ab2b4041d3ad080927a0514da8ae7ab3577a2726c394e21588cbc9ce",
    "04_lifting_and_piecewise":
        "da0101c4c6e12b2eadf282e091701da94299ff64ccb77b6ce04ea504ef172b0d",
    "05_independence_and_companions":
        "c98dc9e020a22b60b76cc5a91363c9e8511afbc966d014bb13d2f9d9826e56af",
    "06_cyclic_fibers":
        "378b2673f6479e264007759af329ececc805f6afea6d97fb65bf9d30905c62cd",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_demo_prints_pinned_bytes(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / f"{name}.py")],
                         cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stderr == b""
    assert hashlib.sha256(run.stdout).hexdigest() == PINNED[name]
