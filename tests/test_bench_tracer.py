"""Every target of bench/tracer.py still names a tilekit function or method.

A target the tracer cannot find is recorded as absent and its per-layer
metrics read 0, so a rename in tilekit would silently zero them.
"""

import importlib.util
from pathlib import Path

import tilekit  # noqa: F401
import tilekit.cli  # noqa: F401
import tilekit.jsonio  # noqa: F401

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
