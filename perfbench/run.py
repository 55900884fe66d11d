#!/usr/bin/env python3
"""Benchmark of the wentzell package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload defaults --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for why each exists): ``defaults`` (verify and
every CLI command at its defaults), ``spectrum`` (large mode tables, table
cache, two-point sums) and ``fdtd`` (long bulk evolution and a convergence
study).  Each runs in its own fresh process as a closed loop with one client.

``--trace 0`` prints the end-to-end metrics: set-up time, pass times, peak RSS
and the accuracy figures.  ``--trace 1`` prints the per-layer metrics from
spans around the calls into each module, with the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Everything the run writes stays
under ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from harness import tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
DEADLINE_S = 170.0


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def import_seconds(env: dict) -> float:
    """Fresh interpreter to ``import wentzell.cli`` done, as a CLI call pays it.
    Not scaled: over 147 imports in 5.5 minutes, neither the reference
    kernel nor a fresh interpreter importing only numpy and stdlib modules
    tracked its drift (correlations 0.16 and 0.39 of the log times), and in a
    set of ten runs scaling by the kernel widened its spread (0.13 to 0.20)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import wentzell.cli"], cwd=ROOT, env=env,
                   check=True, timeout=60)
    return time.perf_counter() - start


def import_breakdown(env: dict) -> dict[str, float]:
    """Cumulative import time of each wentzell module from ``-X importtime``."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c",
                          "import wentzell.cli, wentzell.acceptance"],
                         cwd=ROOT, env=env, check=True, timeout=60,
                         capture_output=True, text=True)
    found = {}
    for line in out.stderr.splitlines():
        parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
        if len(parts) == 3 and parts[2].startswith("wentzell."):
            mod = parts[2].removeprefix("wentzell.")
            if mod in tracer.MODULES:
                found[mod] = int(parts[1]) / 1e6
    return found


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(res: dict, setup: list[float]) -> dict:
    value, pct, n, beyond = tail(res["reported_pass_seconds"])
    print(f"pass_s_tail is p{pct:.0f} of {n} passes ({beyond} beyond it); "
          f"unscaled pass median {statistics.median(res['pass_seconds']):.4f} s")
    m = {"setup_s": metric(statistics.median(setup), "s"),
         "pass_s": metric(statistics.median(res["reported_pass_seconds"]), "s"),
         "pass_s_tail": metric(value, "s"),
         "peak_rss_mb": metric(res["peak_rss_mb"], "MB")}
    for k, v in res["accuracy"].items():
        m[k] = metric(v, "1")
    return m


def per_layer(res: dict, env: dict) -> dict:
    m = {k: metric(v, tracer.unit(k)) for k, v in res["layer"].items()}
    samples = [import_breakdown(env) for _ in range(SETUP_SAMPLES)]
    for mod in tracer.MODULES:
        m[f"setup.import.{mod}_s"] = metric(
            statistics.median([s.get(mod, 0.0) for s in samples]), "s")
    m["trace.overhead_s"] = metric(statistics.median(res["traced_pass_seconds"])
                                   - statistics.median(res["reported_pass_seconds"]),
                                   "s")
    m["edge.failures"] = metric(sum(p["failed"] for p in res["probes"]), "count")
    return m


def report(args, res: dict):
    """Environment, pass times, failures and edge probes of one run."""
    print(f"workload {args.workload}  seed {args.seed}  git {git_sha()}  "
          f"src {source_digest()}")
    print(f"python {res['python']}  numpy {res['numpy']}  scipy {res['scipy']}  "
          f"nproc {os.cpu_count()}  openblas threads {res['blas_threads']}")
    print(f"{len(res['pass_seconds'])} timed passes (s, unscaled): "
          + " ".join(f"{s:.3f}" for s in res["pass_seconds"]))
    if res["scaled"]:
        print("  scaled to the reference speed: "
              + " ".join(f"{s:.3f}" for s in res["reported_pass_seconds"]))
    for name, secs in res["op_median_seconds"].items():
        values = res["op_values"].get(name, {}).items()
        shown = "  ".join(f"{k} = {v:.6g}" for k, v in values if isinstance(v, float))
        print(f"  op {name:<24} median {secs:.4f} s  {shown}".rstrip())
    print(f"fail_frac = {res['failed']}/{res['attempted']} operations "
          f"({res['warmup_failed']} failed in the warm-up pass)")
    for line in res["failures"][:20]:
        print(f"  FAIL {line}")
    edge = sum(p["failed"] for p in res["probes"])
    print(f"edge_failures = {edge} of {len(res['probes'])} probes")
    for p in res["probes"]:
        print(f"  probe {p['name']:<18} {'FAIL' if p['failed'] else 'ok  '} "
              f"{p['outcome']}  [when the benchmark was added: {p['when_added']}]")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("defaults", "spectrum", "fdtd"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()

    if not (ROOT / "src" / "wentzell" / "__init__.py").is_file():
        print("perfbench: no src/wentzell here; run from the root of a checkout "
              "of the repository", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    result_path = work / f"result-{args.workload}-seed{args.seed}-{os.getpid()}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result_path)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        left = DEADLINE_S - 20.0 - (time.perf_counter() - start)
        code = proc.wait(timeout=max(1.0, left))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: workload process timed out", file=sys.stderr)
        return 1
    if code != 0:
        print(f"perfbench: workload process exited {code}", file=sys.stderr)
        return 1
    res = json.loads(result_path.read_text())

    report(args, res)

    if args.trace:
        metrics = per_layer(res, env)
        print("traced passes (as reported): "
              + " ".join(f"{s:.3f}" for s in res["traced_pass_seconds"]))
        if res["absent"]:
            print("absent functions: " + ", ".join(res["absent"]))
        print(f"spans -> {res['spans_file']}")
    else:
        setup = [import_seconds(env) for _ in range(SETUP_SAMPLES)]
        metrics = end_to_end(res, setup)
        own = set(res["accuracy_from_passes"])
        for k in res["accuracy"]:
            where = "the passes" if k in own else "acceptance criteria (untimed)"
            print(f"  {k} from {where}")
    nonfinite = [k for k, m in metrics.items() if not math.isfinite(m["value"])]
    for name in nonfinite:
        print(f"{name} is not finite; reported as the largest float")
        metrics[name]["value"] = sys.float_info.max
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    correct = res["failed"] == 0 and res["warmup_failed"] == 0 and not nonfinite
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
