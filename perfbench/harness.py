"""Operations, output checks and pass statistics shared by the workloads.

An operation is one call into the program: a CLI invocation through
``wentzell.cli.main`` or a direct call of public library functions.  It fails
when it exits non-zero or raises, when a ``verify.json`` it writes has
``all_passed`` false, when any CSV or JSON it writes (or any value it returns)
holds a non-finite number, or when a CSV it writes differs from the one the
same operation wrote in an earlier pass of the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass
class Op:
    """``run(d)`` does the work, writing under ``d``, the directory of the
    pass.  It returns an exit code (CLI operations) or a dict of values."""

    name: str
    run: Callable[[Path], "int | dict | None"]


@dataclass
class OpResult:
    name: str
    seconds: float
    failures: list[str] = field(default_factory=list)
    outputs: list[Path] = field(default_factory=list)
    values: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


# The machine this runs on is shared, and the speed it gives one process
# drifts by up to 2x within seconds (a fixed numpy kernel took 250-600 ms
# over 40 s on a 2-vCPU VM).  A workload that follows the drift closely gets a
# fixed reference kernel that does not touch the program, timed before,
# between and after the operations of each pass, and its pass times are
# scaled to the speed at which the kernel takes REFERENCE_S.  The kernel runs
# in the program's process, so what an operation leaves behind (allocator
# state, BLAS threads) can move it too; workloads.SCALED says which workloads
# are scaled and why.
REFERENCE_S = 0.015
_REFERENCE_DATA = np.linspace(0.0, 1.0, 50_000)


def _kernel() -> float:
    start = time.perf_counter()
    for _ in range(8):
        np.sin(_REFERENCE_DATA) * np.cos(_REFERENCE_DATA) + _REFERENCE_DATA ** 2
    total = 0
    for i in range(30_000):
        total += i * i
    return time.perf_counter() - start


def reference() -> float:
    """Wall time of the reference kernel (numpy elementwise work and an
    interpreter loop, about 10 ms on an idle core), the faster of two runs
    so that a transient just after an operation does not count."""
    return min(_kernel(), _kernel())


@dataclass
class PassResult:
    index: int
    results: list[OpResult]
    reference: list[float]  # before, between and after the operations; or none

    @property
    def seconds(self) -> float:
        """Program time of the pass: the sum of its operations' wall times,
        without the benchmark's own output checks."""
        return sum(r.seconds for r in self.results)

    @property
    def reported_seconds(self) -> float:
        """``seconds`` at the speed where the reference takes REFERENCE_S, if
        the pass timed the reference; else ``seconds``."""
        if not self.reference:
            return self.seconds
        return self.seconds * REFERENCE_S / float(np.mean(self.reference))

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.results)


def cli_op(name: str, argv: list[str]) -> Op:
    """Operation running ``wentzell <argv>`` in-process; ``{d}`` in an argument
    is replaced by the operation's output directory."""

    def run(d: Path) -> int:
        from wentzell.cli import main
        return main([a.format(d=d) for a in argv])

    return Op(name, run)


def _snapshot(d: Path) -> dict[Path, tuple[int, int]]:
    if not d.exists():
        return {}
    return {p: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in d.rglob("*") if p.is_file()}


def _nonfinite(obj) -> bool:
    if isinstance(obj, float):
        return not math.isfinite(obj)
    if isinstance(obj, dict):
        return any(_nonfinite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return any(_nonfinite(v) for v in obj)
    return False


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Column names and data rows of a CSV written by the CLI."""
    rows = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    data = np.array([[float(v) for v in ln.split(",")] for ln in rows[1:]])
    return rows[0].split(","), data.reshape(len(rows) - 1, -1)


def check_file(path: Path) -> list[str]:
    """Non-finite numbers in a CSV or JSON output, and a failed verify report."""
    if path.suffix == ".csv":
        try:
            _, data = read_csv(path)
        except (IndexError, ValueError) as exc:
            return [f"{path.name}: unreadable CSV ({exc})"]
        return [] if np.all(np.isfinite(data)) else [f"{path.name}: non-finite value"]
    if path.suffix == ".json":
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            return [f"{path.name}: unreadable JSON ({exc})"]
        problems = []
        if _nonfinite(doc):
            problems.append(f"{path.name}: non-finite value")
        if isinstance(doc, dict) and doc.get("all_passed") is False:
            problems.append(f"{path.name}: all_passed is false")
        return problems
    return []


def run_op(op: Op, d: Path, csv_hashes: dict | None = None) -> OpResult:
    """Run one operation in ``d`` and check what it wrote and returned.

    ``csv_hashes`` maps (operation, file) to the digest of the CSV written in
    an earlier pass; a differing CSV fails the operation."""
    d.mkdir(parents=True, exist_ok=True)
    before = _snapshot(d)
    out, err = io.StringIO(), io.StringIO()
    failures: list[str] = []
    ret = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            ret = op.run(d)
    except SystemExit as exc:  # argparse rejects a command line this way
        ret = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the loop must go on; the failure is counted
        failures.append(f"raised {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    values = ret if isinstance(ret, dict) else {}
    if isinstance(ret, int) and ret != 0:
        tail = err.getvalue().strip().splitlines()[-1:] or [""]
        failures.append(f"exit {ret} {tail[0]}".rstrip())
    if _nonfinite(values):
        failures.append("non-finite result value")
    if values.get("check_failed"):
        failures.append(str(values["check_failed"]))
    after = _snapshot(d)
    outputs = sorted(p for p, sig in after.items() if before.get(p) != sig)
    for path in outputs:
        failures.extend(check_file(path))
        if csv_hashes is not None and path.suffix == ".csv":
            key = (op.name, str(path.relative_to(d)))
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            if csv_hashes.setdefault(key, digest) != digest:
                failures.append(f"{path.name}: differs from an earlier pass")
    return OpResult(op.name, seconds, failures, outputs, values)


def run_pass(ops: list[Op], d: Path, index: int, csv_hashes: dict,
             scale: bool = False) -> PassResult:
    """One closed-loop pass: each operation starts when the previous ended.
    Every pass writes into a fresh directory (fresh caches included).  With
    ``scale`` the reference kernel is timed around the operations."""
    if d.exists():
        shutil.rmtree(d)
    results, ref = [], [reference()] if scale else []
    for op in ops:
        results.append(run_op(op, d, csv_hashes))
        if scale:
            ref.append(reference())
    return PassResult(index, results, ref)


def tail(samples: list[float]) -> tuple[float, float, int, int]:
    """(value, percentile, samples, beyond): the highest percentile with at
    least ten samples beyond it.  Below 40 samples a quarter of them stands
    in for the ten (none below 4 samples: the maximum), so that the figure
    stays above the median."""
    xs = sorted(samples)
    n = len(xs)
    beyond = min(10, n // 4)
    k = n - 1 - beyond
    return xs[k], 100.0 * (k + 1) / n, n, beyond
