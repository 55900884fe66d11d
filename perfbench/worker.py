"""One workload in one fresh process: the edge probes, an untimed warm-up pass,
then timed closed-loop passes until the time is up.  With ``--trace 1`` half of
the time runs untraced and half traced, which gives the tracing overhead.
Writes its findings as JSON to ``--result``; ``run.py`` starts this process."""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import harness
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, if it is OpenBLAS."""
    with open("/proc/self/maps") as f:
        libs = {ln.split()[-1] for ln in f if "openblas" in ln.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def timed_passes(ops, work: Path, seconds: float, first: int, hashes: dict,
                 scale: bool, tracer=None) -> list:
    """Passes until ``seconds`` have gone by; at least one."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        index = first + len(passes)
        if tracer is not None:
            tracer.pass_id = index
        passes.append(harness.run_pass(ops, work / "pass", index, hashes, scale))
    if tracer is not None:
        tracer.pass_id = None
    return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    import wentzell
    if Path(wentzell.__file__).resolve().parent != (ROOT / "src" / "wentzell").resolve():
        print(f"perfbench: imported wentzell from {wentzell.__file__}, "
              f"not from this checkout", file=sys.stderr)
        return 2
    work = args.result.parent / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    os.environ["WENTZELL_CACHE_DIR"] = str(work / "cache")  # nothing writes to ~
    ops = workloads.WORKLOADS[args.workload](args.seed)
    scale = args.workload in workloads.SCALED

    probes = []
    for probe in workloads.PROBES:
        r = harness.run_op(probe.op, work / "probes" / probe.op.name)
        probes.append({"name": probe.op.name, "failed": not r.ok,
                       "outcome": "; ".join(r.failures) or "ok",
                       "when_added": probe.when_added})

    hashes: dict = {}
    warm = harness.run_pass(ops, work / "pass", 0, hashes)
    accuracy = workloads.accuracy(warm)
    from_passes = sorted(accuracy)

    budget = args.seconds / 2 if args.trace else args.seconds
    passes = timed_passes(ops, work, budget, 1, hashes, scale)
    traced, layer, absent, spans_file = [], {}, [], None
    if args.trace:
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = timed_passes(ops, work, budget, 1 + len(passes), hashes,
                                  scale, tracer=tr)
        finally:
            tr.uninstall()
        layer = tracing.layer_metrics(tr.spans, [(p.index, p.seconds) for p in traced])
        absent = tr.absent
        spans_file = args.result.with_suffix(".spans.json")
        tr.write(spans_file)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if not args.trace:
        missing = [k for k in workloads.ACCURACY if k not in accuracy]
        accuracy.update(workloads.accuracy_from_criteria(missing))

    op_seconds = {}
    for p in passes:
        for r in p.results:
            op_seconds.setdefault(r.name, []).append(r.seconds)
    failures = [f"pass {p.index} {r.name}: {'; '.join(r.failures)}"
                for p in [warm, *passes, *traced] for r in p.results if not r.ok]
    result = {
        "workload": args.workload, "seed": args.seed,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": blas_threads(),
        "pass_seconds": [p.seconds for p in passes],
        "scaled": scale,
        "reported_pass_seconds": [p.reported_seconds for p in passes],
        "traced_pass_seconds": [p.reported_seconds for p in traced],
        "op_median_seconds": {k: statistics.median(v) for k, v in op_seconds.items()},
        "op_values": {r.name: r.values for r in warm.results if r.values},
        "attempted": sum(len(p.results) for p in [*passes, *traced]),
        "failed": sum(p.failed for p in [*passes, *traced]),
        "warmup_failed": warm.failed,
        "failures": failures,
        "accuracy": workloads.floored(accuracy),
        "accuracy_from_passes": from_passes,
        "probes": probes,
        "peak_rss_mb": peak_rss_mb,
        "layer": layer, "absent": absent,
        "spans_file": str(spans_file) if spans_file else None,
    }
    args.result.write_text(json.dumps(result, indent=1))
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
