"""Tests of the benchmark itself: output checks, fail counting and the tracer.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from wentzell import core, evolve, modes, qft  # noqa: E402


def test_nan_probe_counts_as_failure(tmp_path):
    probe = next(p for p in workloads.PROBES if p.op.name == "evolve-c-1e-4")
    r = harness.run_op(probe.op, tmp_path)
    assert not r.ok
    assert any("non-finite" in f for f in r.failures)


def test_nonzero_exit_and_raise_raise_fail_frac(tmp_path):
    def boom(d):
        raise RuntimeError("forced")

    ops = [harness.cli_op("ok", ["modes", "--max", "5", "--cache-dir", "{d}/cache"]),
           harness.cli_op("bad-c", ["modes", "--c", "-1", "--cache-dir", "{d}/cache"]),
           harness.Op("raises", boom)]
    pr = harness.run_pass(ops, tmp_path / "pass", 1, {}, scale=True)
    assert [r.ok for r in pr.results] == [True, False, False]
    assert pr.results[1].failures[0].startswith("exit 1")
    assert pr.failed / len(pr.results) == pytest.approx(2 / 3)
    assert len(pr.reference) == len(ops) + 1 and pr.reported_seconds > 0


def test_failed_verify_report_and_changed_csv_fail(tmp_path):
    (tmp_path / "verify.json").write_text(json.dumps({"all_passed": False}))
    assert harness.check_file(tmp_path / "verify.json")

    content = iter(["x\n1.0\n", "x\n2.0\n"])

    def writes_csv(d):
        (d / "out.csv").write_text(next(content))
        return 0

    hashes = {}
    op = harness.Op("csv", writes_csv)
    assert harness.run_pass([op], tmp_path / "p", 0, hashes).failed == 0
    assert harness.run_pass([op], tmp_path / "p", 1, hashes).failed == 1


def test_tail_keeps_samples_beyond_it():
    value, pct, n, beyond = harness.tail([float(i) for i in range(1, 9)])
    assert (value, n, beyond) == (6.0, 8, 2)
    value, pct, n, beyond = harness.tail([float(i) for i in range(100)])
    assert beyond == 10 and value == 89.0 and pct == 90.0


def _smearing_call():
    p = core.PhysicalParams(c=1.0, mu=1.0, geometry=core.Strip(1.0))
    table = modes.build_table(10, p)
    grid = core.Grid1D.for_strip(1.0, 64)
    t = np.linspace(-3.0, 3.0, 201)
    f = np.exp(-5.0 * t[:, None] ** 2) * np.exp(-grid.nodes[None, :] ** 2 / 0.1)
    return qft.smeared_coeffs(f, None, table, t, grid)


def test_tracer_sees_nested_internal_call():
    original = qft.mode_matrix
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.pass_id = 0
        _smearing_call()
    finally:
        tr.uninstall()
    assert qft.mode_matrix is original and modes.mode_matrix is original
    names = [s[0] for s in tr.spans]
    outer = names.index("qft.smeared_coeffs")
    inner = [s for s in tr.spans if s[0] == "modes.mode_matrix" and s[3] == outer]
    assert inner, names
    assert tr.spans[outer][5]["work"] == 201 * 11


def test_self_times_sum_to_top_level_time(tmp_path):
    from wentzell import cli
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.pass_id = 0
        assert cli.main(["evolve", "--grid-n", "256", "--T", "4",
                         "--out", str(tmp_path / "e.csv")]) == 0
        _smearing_call()
    finally:
        tr.uninstall()
    roots = sum(s[2] - s[1] for s in tr.spans if s[3] is None)
    assert sum(tracer.self_times(tr.spans)) == pytest.approx(roots, rel=1e-9, abs=1e-12)
    m = tracer.pass_metrics(tr.spans, 0, roots)
    assert m["evolve.fdtd_run.calls"] > 0 and m["evolve.mcells_per_s"] > 0
    assert m["trace.uncovered_share"] == pytest.approx(0.0, abs=1e-9)


def test_absent_public_name_does_not_crash(monkeypatch):
    monkeypatch.delattr(evolve, "energy_in_region")
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.absent == ["evolve.energy_in_region"]
    assert tracer.pass_metrics(tr.spans, 0, 1.0)["evolve.energy_in_region.s"] == 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = set(tracer.pass_metrics([], 0, 1.0))
    layer |= {f"setup.import.{m}_s" for m in tracer.MODULES}
    layer |= {"trace.overhead_s", "edge.failures"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    for m in spec["per_layer"]:
        assert m["unit"] == tracer.unit(m["name"]) or m["name"] == "edge.failures"
    e2e = {"setup_s", "pass_s", "pass_s_tail", "peak_rss_mb", *workloads.ACCURACY}
    assert {m["name"] for m in spec["end_to_end"]} == e2e
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
