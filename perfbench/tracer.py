"""Spans around the calls into each wentzell module, recorded from outside.

``install`` wraps every public function in the module that defines it and
rebinds the wrapper in every wentzell module that imported the function by
name (and in tuples of such functions, like ``acceptance.ALL_CRITERIA``), so
internal calls are seen too.  A span is (name, start, end, parent, pass id,
counts); spans stay in memory until ``write``.  Counts come from arguments
and return values.  ``holographic_dual`` and ``fdtd_run`` also record their
peak allocation with ``tracemalloc``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

MODULES = ("core", "modes", "evolve", "qft", "holo", "cli", "acceptance")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _fdtd_counts(a, k, r):
    steps = int(_arg(a, k, 1, "n_steps"))
    return {"steps": steps, "cell_updates": steps * _arg(a, k, 0, "s").phi.size}


def _fdtd_alloc_key(a, k):
    """fdtd_run reuses its buffers, so its peak allocation is set by the grid
    size alone: measure the first short call (at most 64 steps) per pass and
    grid size.  Long calls are not measured (False); tracking their
    allocations would slow them several-fold."""
    if int(_arg(a, k, 1, "n_steps")) > 64:
        return False
    return _arg(a, k, 0, "s").phi.size


# Calls whose peak allocation tracemalloc records, with a key function that
# limits the measurement as above; None measures every call.
ALLOC = {"holo.holographic_dual": None, "evolve.fdtd_run": _fdtd_alloc_key}

COUNTERS = {
    "modes.build_table": lambda a, k, r: {"modes": len(r)},
    "modes.mode_matrix": lambda a, k, r: {"cells": int(r.size)},
    "evolve.fdtd_run": _fdtd_counts,
    "holo.holographic_dual": lambda a, k, r: {
        "macs": len(r.t_grid) * int(np.count_nonzero(r.fhat))},
    "holo.FreqExtension.__call__": lambda a, k, r: {
        "points": int(np.size(_arg(a, k, 1, "omega")))},
    "qft.smeared_coeffs": lambda a, k, r: {
        "work": len(_arg(a, k, 3, "time_grid")) * len(_arg(a, k, 2, "table"))},
    "cli.load_or_build_table": lambda a, k, r: {"hit": int(bool(r[2]))},
    "cli.atomic_write_text": lambda a, k, r: {"bytes": len(_arg(a, k, 1, "text"))},
    "cli.write_csv": lambda a, k, r: {"rows": len(np.atleast_2d(_arg(a, k, 3, "rows")))},
}

# Per-layer metrics read straight from the span totals: "<span>.<quantity>".
SPAN_METRICS = (
    "modes.build_table.s", "modes.build_table.calls", "modes.build_table.modes",
    "modes.mode_matrix.s", "modes.mode_matrix.calls", "modes.mode_matrix.cells",
    "modes.project.s", "modes.synthesize.s", "modes.verify_table.s",
    "cli.load_or_build_table.s", "cli.table_from_json.s", "cli.table_to_json.s",
    "cli.atomic_write_text.s", "cli.atomic_write_text.bytes", "cli.write_csv.s",
    "cli.write_csv.rows", "cli.cmd_modes.s", "cli.cmd_evolve.s", "cli.cmd_twopoint.s",
    "cli.cmd_holo.s", "cli.cmd_verify.s",
    "evolve.fdtd_run.s", "evolve.fdtd_run.calls", "evolve.fdtd_run.cell_updates",
    "evolve.fdtd_run.peak_alloc_mb", "evolve.energy.s", "evolve.energy.calls",
    "evolve.make_fdtd_state.s", "evolve.spectral_evolve.s",
    "evolve.spectral_evolve.calls", "evolve.explicit_solution.s",
    "evolve.explicit_solution.calls", "evolve.causality_probe.s",
    "evolve.energy_in_region.s",
    "qft.boundary_2pt_strip.s", "qft.spacelike_2pt_bessel.s",
    "qft.commutator_boundary.s", "qft.commutator_boundary.calls",
    "qft.causality_check.s", "qft.boundary_2pt_halfspace.s",
    "qft.boundary_2pt_halfspace.calls", "qft.tail_convergence.s",
    "qft.smeared_coeffs.s", "qft.smeared_coeffs.work", "qft.source_relation_check.s",
    "holo.holographic_dual.s", "holo.holographic_dual.self_s",
    "holo.holographic_dual.peak_alloc_mb", "holo.FreqExtension.__call__.s",
    "holo.FreqExtension.__call__.calls", "holo.FreqExtension.__call__.points",
    "holo.detect_bursts.s", "holo.verify_dual.s", "holo.fig2_reproduce.s",
)

# Functions the per-layer metrics read.  One that is gone is reported absent.
WATCHED = tuple(sorted({m.rsplit(".", 1)[0] for m in SPAN_METRICS}))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, pass_id, counts]
        self.pass_id = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._alloc_measured: set = set()

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        alloc = name in ALLOC
        alloc_key = ALLOC.get(name)
        spans, stack, measured = self.spans, self._stack, self._alloc_measured

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.pass_id, None]
            stack.append(len(spans))
            spans.append(rec)
            own_alloc = alloc and not tracemalloc.is_tracing()
            if own_alloc and alloc_key is not None:
                try:
                    key = alloc_key(args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError):
                    key = None  # unknown signature: measure every call
                seen = (name, self.pass_id, key)
                own_alloc = key is not False and seen not in measured
                if key is not None:
                    measured.add(seen)
            if own_alloc:
                tracemalloc.start()
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if own_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            counts = {}
            if count is not None:
                try:
                    counts = count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    counts = {}  # a changed signature loses the count, not the span
            if own_alloc:
                counts["peak_alloc_mb"] = peak / 2**20
            rec[5] = counts or None
            return result

        return traced

    def install(self):
        mods = {m: importlib.import_module(f"wentzell.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
        ext = getattr(mods["holo"], "FreqExtension", None)
        if ext is not None and "__call__" in vars(ext):
            self._set(ext, "__call__", self.wrap("holo.FreqExtension.__call__",
                                                 vars(ext)["__call__"]))
        for mod in (importlib.import_module("wentzell"), *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
                elif isinstance(obj, tuple) and any(
                        inspect.isfunction(f) and f in wrapped for f in obj):
                    self._set(mod, attr, tuple(wrapped.get(f, f)
                                               if inspect.isfunction(f) else f
                                               for f in obj))
        self.absent = [n for n in WATCHED if not _exists(mods, n)]

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def write(self, path: Path):
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent",
                                               "pass", "counts"],
                                    "spans": self.spans}))


def _exists(mods, dotted: str) -> bool:
    obj = mods[dotted.split(".")[0]]
    for part in dotted.split(".")[1:]:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


# ---------------------------------------------------------------------------
# per-layer metrics

def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] is not None:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def _name_totals(spans: list[list], pass_id) -> tuple[dict, float, dict]:
    self_s = self_times(spans)
    tot: dict[str, dict] = {}
    mod_self: dict[str, float] = {}
    roots = 0.0
    for s, own in zip(spans, self_s):
        if s[4] != pass_id:
            continue
        dur = s[2] - s[1]
        t = tot.setdefault(s[0], {"s": 0.0, "self_s": 0.0, "calls": 0})
        t["s"] += dur
        t["self_s"] += own
        t["calls"] += 1
        for k, v in (s[5] or {}).items():
            if k == "peak_alloc_mb":
                t[k] = max(t.get(k, 0.0), v)
            else:
                t[k] = t.get(k, 0) + v
        if s[0] == "evolve.fdtd_run" and "steps" in (s[5] or {}):
            key = "step1" if s[5].get("steps") == 1 else "bulk"
            t[f"{key}_s"] = t.get(f"{key}_s", 0.0) + dur
            t[f"{key}_calls"] = t.get(f"{key}_calls", 0) + 1
            t[f"{key}_cells"] = t.get(f"{key}_cells", 0) + s[5]["cell_updates"]
        mod = s[0].split(".")[0]
        mod_self[mod] = mod_self.get(mod, 0.0) + own
        if s[3] is None:
            roots += dur
    return tot, roots, mod_self


def _ratio(a: float, b: float) -> float:
    return a / b if b > 0 else 0.0


def pass_metrics(spans: list[list], pass_id, pass_seconds: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    tot, roots, mod_self = _name_totals(spans, pass_id)

    def g(name, key="s"):
        return tot.get(name, {}).get(key, 0)

    fr = tot.get("evolve.fdtd_run", {})
    hits = g("cli.load_or_build_table", "hit")
    misses = g("cli.load_or_build_table", "calls") - hits
    m = {name: g(*name.rsplit(".", 1)) for name in SPAN_METRICS}
    m.update({
        "modes.modes_per_s": _ratio(g("modes.build_table", "modes"),
                                    g("modes.build_table")),
        "cli.cache_hits": hits,
        "cli.cache_misses": misses,
        "cli.cache_hit_ratio": _ratio(hits, hits + misses),
        "evolve.mcells_per_s": _ratio(fr.get("bulk_cells", 0),
                                      fr.get("bulk_s", 0.0)) / 1e6,
        "evolve.fdtd_run_step1.s": fr.get("step1_s", 0.0),
        "evolve.fdtd_run_step1.calls": fr.get("step1_calls", 0),
        # Computed, not measured: one read of phi and phi_prev and one write of
        # phi_next (8-byte floats) per cell update, the least a step can move.
        "evolve.fdtd_run.bytes_computed": 24 * g("evolve.fdtd_run", "cell_updates"),
        "holo.inverse_transform.macs": g("holo.holographic_dual", "macs"),
        "core.s": mod_self.get("core", 0.0),
        "core.calls": sum(t["calls"] for n, t in tot.items() if n.startswith("core.")),
        "trace.uncovered_share": max(0.0, 1.0 - _ratio(roots, pass_seconds)),
    })
    for i in range(1, 13):
        m[f"acceptance.criterion_{i}.s"] = sum(
            t["s"] for n, t in tot.items()
            if n.startswith(f"acceptance.criterion_{i}_"))
    for mod in MODULES:
        if mod != "core":
            m[f"{mod}.self_s"] = mod_self.get(mod, 0.0)
    return m


def unit(name: str) -> str:
    if name.endswith("mcells_per_s"):
        return "Mcell/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("bytes_computed") or name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_share", "_ratio")):
        return "1"
    return "count"


def layer_metrics(spans: list[list], passes: list[tuple]) -> dict[str, float]:
    """Median over traced passes of each per-layer metric."""
    per_pass = [pass_metrics(spans, pid, secs) for pid, secs in passes]
    return {k: float(statistics.median(p[k] for p in per_pass)) for k in per_pass[0]}
