"""Per-module tracing of tilekit from the outside.

The tracer wraps tilekit's public functions and a few methods without
changing any tilekit file.  Modules bind names such as ``stabilizer`` and
``search_periodic_cotile`` directly (``from .lattice import stabilizer``), so a
function is replaced in every ``tilekit`` module namespace that holds it; a
method is replaced on its class.  A target that no longer exists is recorded
as absent and its metrics read 0.

Every wrapped call keeps a count, the summed time of its outermost calls and
its self time (duration minus the time of wrapped calls made inside it).
Module-entry calls also record a span (name, start, end, parent span,
request).  The hot primitives record no span, only the count and times.
"""

from __future__ import annotations

import sys
import time

# (module, attribute path, metric prefix, hot primitive)
TARGETS = (
    ("lattice", "Lattice.reduce", "lattice.reduce", True),
    ("lattice", "Lattice.quotient", "lattice.quotient", True),
    ("lattice", "hnf", "lattice.hnf", True),
    ("lattice", "enumerate_sublattices", "lattice.enumerate_sublattices", False),
    ("lattice", "stabilizer", "lattice.stabilizer", False),
    ("solve", "search_periodic_cotile", "solve.search_periodic_cotile", False),
    ("solve", "SearchProblem.build", "solve.SearchProblem.build", False),
    ("solve", "solve_quotient", "solve.solve_quotient", False),
    ("solve", "search_Z_cotile", "solve.search_Z_cotile", False),
    ("solve", "lift_to_full_period", "solve.lift_to_full_period", False),
    ("tiles", "convolve", "tiles.convolve", False),
    ("tiles", "PeriodicRationalFunction.stabilizer", "tiles.fn_stabilizer", False),
    ("verify", "is_joint_cotile", "verify.is_joint_cotile", False),
    ("verify", "is_level_tiling", "verify.is_level_tiling", False),
    ("decompose", "build_decomposition", "decompose.build_decomposition", False),
    ("decompose", "verify_decomposition", "decompose.verify_decomposition", False),
    ("torsion", "ring_inverse", "torsion.ring_inverse", False),
    ("torsion", "cotile_conclusion", "torsion.cotile_conclusion", False),
    ("construct", "brother_tiles", "construct.brother_tiles", False),
    ("analysis", "is_independent_tuple", "analysis.is_independent_tuple", False),
    ("analysis", "has_property_star", "analysis.has_property_star", False),
    ("jsonio", "load", "jsonio.load", False),
    ("jsonio", "to_document", "jsonio.to_document", False),
    ("cli", "build_parser", "cli.build_parser", False),
    ("cli", "main", "cli.main", False),
)

SWEEP = "solve.search_periodic_cotile"


def replace_everywhere(original, replacement):
    """Bind replacement wherever a tilekit module binds original.

    Returns (module, name, original) triples for restoring with setattr.
    """
    restore = []
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not (mod_name == "tilekit" or mod_name.startswith("tilekit.")):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                restore.append((module, name, original))
    return restore


class Stat:
    __slots__ = ("calls", "seconds", "self_seconds", "depth")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0       # outermost calls only, so recursion is not counted twice
        self.self_seconds = 0.0
        self.depth = 0


class Tracer:
    """Install with ``install()``, wrap each request in ``request(i)``, then
    ``uninstall()``.  Counters that need a result (solutions, nodes, periods)
    are taken from return values by small hooks below."""

    def __init__(self):
        self.stats = {prefix: Stat() for _, _, prefix, _ in TARGETS}
        self.absent = []
        self.spans = []          # (name, start, end, parent span id, request id)
        self.counts = {"candidates": 0, "feasible": 0, "productive": 0,
                       "raw_solutions": 0, "distinct": 0, "periods_checked": 0,
                       "nodes": 0}
        self._stack = [[0.0, None]]   # frames: [child seconds, span id]
        self._request = None
        self._restore = []

    # -- hooks on return values -------------------------------------------------
    def _hooks(self):
        c = self.counts
        sweep = self.stats[SWEEP]

        def candidates(res):
            c["candidates"] += len(res)

        def build(res):
            if sweep.depth and getattr(res, "feasible", False):
                c["feasible"] += 1

        def solved(res):
            if sweep.depth:
                c["raw_solutions"] += len(res)
                c["productive"] += 1 if res else 0

        def distinct(res):
            c["distinct"] += len(res)

        def periods(res):
            c["periods_checked"] += len(getattr(res, "periods_checked", ()))

        def nodes(res):
            c["nodes"] += len(getattr(res, "nodes", ()))

        return {"lattice.enumerate_sublattices": candidates,
                "solve.SearchProblem.build": build,
                "solve.solve_quotient": solved,
                "solve.search_periodic_cotile": distinct,
                "solve.search_Z_cotile": periods,
                "decompose.build_decomposition": nodes}

    def _wrap(self, fn, prefix, hot, hook):
        stat = self.stats[prefix]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = len(spans) if not hot else parent[1]
            if not hot:
                spans.append(None)          # reserve the id; filled in on exit
            frame = [0.0, span_id]
            stack.append(frame)
            stat.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                stat.depth -= 1
                d = t1 - t0
                parent[0] += d
                stat.calls += 1
                stat.self_seconds += d - frame[0]
                if not stat.depth:
                    stat.seconds += d
                if not hot:
                    spans[span_id] = (prefix, t0, t1, parent[1], self._request)
            if hook is not None:
                hook(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        hooks = self._hooks()
        for mod_name, path, prefix, hot in TARGETS:
            module = sys.modules.get("tilekit." + mod_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                self.absent.append(prefix)
                continue
            raw = vars(owner)[attr]
            if owner_name:
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapped = self._wrap(fn, prefix, hot, hooks.get(prefix))
                setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
                self._restore.append((owner, attr, raw))
                continue
            self._restore += replace_everywhere(
                raw, self._wrap(raw, prefix, hot, hooks.get(prefix)))

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def request(self, index):
        return _RequestSpan(self, index)

    # -- results ------------------------------------------------------------------
    def metrics(self):
        """The per-module metrics, by name, as (value, unit)."""
        s = self.stats
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in ("lattice.reduce", "lattice.quotient", "lattice.hnf",
                     "lattice.stabilizer", "solve.solve_quotient", "tiles.convolve"):
            out[name + ".calls"] = (s[name].calls, "count")
        for _, _, prefix, _ in TARGETS:
            if prefix not in ("solve.SearchProblem.build", "cli.main"):
                out[prefix + ".s"] = (s[prefix].seconds, "s")
        out["solve.solve_quotient.self_s"] = (s["solve.solve_quotient"].self_seconds, "s")
        out["cli.main.self_s"] = (s["cli.main"].self_seconds, "s")
        out["lattice.candidates"] = (c["candidates"], "count")
        out["solve.feasible_ratio"] = (ratio(c["feasible"], c["candidates"]), "ratio")
        out["solve.productive_ratio"] = (ratio(c["productive"], c["feasible"]), "ratio")
        out["solve.raw_solutions"] = (c["raw_solutions"], "count")
        out["solve.distinct_ratio"] = (ratio(c["distinct"], c["raw_solutions"]), "ratio")
        out["solve.periods_checked"] = (c["periods_checked"], "count")
        out["decompose.nodes"] = (c["nodes"], "count")
        return out

    def span_records(self):
        return [list(span) for span in self.spans if span is not None]


class _RequestSpan:
    """Root span of one request; the ids of its module spans point back to it."""

    def __init__(self, tracer, index):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        t = self.tracer
        t._request = self.index
        self.span_id = len(t.spans)
        t.spans.append(None)
        t._stack.append([0.0, self.span_id])
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t1 = time.perf_counter()
        t._stack.pop()
        t.spans[self.span_id] = ("request", self.t0, t1, None, self.index)
        t._request = None
        return False
