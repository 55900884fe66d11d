import hashlib
import importlib
import importlib.util
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from wentzell import cli, modes
from wentzell.cli import main, table_from_json, table_to_json
from wentzell.evolve import energy, fdtd_samples, make_fdtd_state
from wentzell.holo import FreqExtension
from wentzell.modes import build_table, check_solution
from wentzell.qft import _HALFSPACE_PHASE, strip_tail_bound
from wentzell.core import CauchyData, Grid1D, PhysicalParams, Strip

ROOT = Path(__file__).resolve().parents[1]


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path):
    rows = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    cols = rows[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in rows[1:]])
    return cols, data


def test_table_json_round_trip():
    p = PhysicalParams(c=0.7, mu=1.3, geometry=Strip(0.9))
    table = build_table(12, p)
    text = table_to_json(table)
    back = table_from_json(text)
    for col in ("qs", "deltas", "c_norms", "d_bdys"):
        assert getattr(back, col).tolist() == getattr(table, col).tolist()
    assert back.params == table.params
    # one mode per line, in the layout that readers of the cache use
    lines = text.splitlines()
    assert len(lines) == 1 + 13 + 1
    assert json.loads(lines[3].rstrip(",")) == {
        "m": 2, "q": table.qs[2], "delta": table.deltas[2], "parity": "even",
        "c_norm": table.c_norms[2], "d_bdy": table.d_bdys[2]}


def _drop_delta(entries):
    del entries[5]["delta"]


@pytest.mark.parametrize("M, edit", [
    (200, lambda entries: entries[37].update(q=entries[37]["q"] + 1e-9)),
    # q S > 2^12, where the residual is taken in delta form
    (11000, lambda entries: entries[10500].update(q=entries[10500]["q"] + 1e-9)),
    (200, _drop_delta),
    # c_m and d_m moved in their last digits: their exact relations fail
    (200, lambda entries: entries[40].update(c_norm=entries[40]["c_norm"] * (1 + 1e-13))),
    (200, lambda entries: entries[37].update(d_bdy=entries[37]["d_bdy"] * (1 + 1e-13))),
], ids=["q", "q-delta-form", "no-delta", "c_norm", "d_bdy"])
def test_modified_cache_is_rebuilt(tmp_path, capsys, M, edit):
    cache = tmp_path / "cache"
    args = ["modes", "--max", str(M), "--cache-dir", str(cache)]
    assert main(args) == 0
    path, = cache.glob("modes_*.json")
    doc = json.loads(path.read_text())
    edit(doc["entries"])
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(args) == 0
    assert "(computed)" in capsys.readouterr().out
    fresh = build_table(M, PhysicalParams(c=1.0, geometry=Strip(1.0)))
    assert path.read_text() == table_to_json(fresh)
    assert main(args) == 0
    assert "(cache hit)" in capsys.readouterr().out


def test_benchmark_reads_the_cached_residual(tmp_path, monkeypatch):
    # perfbench takes eig_residual_max from the cache files the CLI writes;
    # its module is imported without writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    p = PhysicalParams(c=1.0, mu=1.0, geometry=Strip(1.0))
    table, path, hit = cli.load_or_build_table(p, 2000, tmp_path)
    assert not hit
    worst = float(np.max(table.residuals))
    assert workloads._table_residual(json.loads(path.read_text())) == worst
    assert workloads._from_file(path) == {"eig_residual_max": worst}


def load_workloads(monkeypatch, cli_op):
    """The benchmark's workloads module, loaded afresh with ``cli_op`` in
    place of the harness's CLI operation."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    harness = importlib.import_module("harness")
    monkeypatch.setattr(harness, "cli_op", cli_op)
    spec = importlib.util.spec_from_file_location("recorded_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_command_lines_parse(tmp_path, monkeypatch):
    # every argv the benchmark passes to the CLI, from all workloads and the
    # edge probes, is accepted by the parser (holo keeps its unused
    # --cache-dir); cli_op records the argv instead of making an operation
    argvs = []
    workloads = load_workloads(monkeypatch, lambda name, argv: argvs.append(argv))
    for make in workloads.WORKLOADS.values():
        make(0)
    assert {argv[0] for argv in argvs} == {"verify", "modes", "evolve", "twopoint", "holo"}
    parser = cli.build_parser()
    for argv in argvs:
        args = parser.parse_args([a.format(d=tmp_path) for a in argv])
        assert args.func.__name__ == f"cmd_{argv[0]}"


def test_benchmark_reads_the_holo_figures(tmp_path, monkeypatch):
    # the holo accuracy figures come from the files that the workloads' own
    # holo command lines write, read as the harness reads every output
    ops = []
    workloads = load_workloads(monkeypatch, lambda name, argv: ops.append((name, argv)))
    workloads.defaults(0)
    figures = {}
    for name, argv in ops:
        if argv[0] == "holo":
            d = tmp_path / name
            assert main([a.format(d=d) for a in argv]) == 0
            for path in sorted(d.rglob("*")):
                figures.update(workloads._from_file(path))
    assert {name for name, argv in ops if argv[0] == "holo"} == {"holo", "holo-fig2"}
    holo = json.loads((tmp_path / "holo" / "holo.meta.json").read_text())
    fig2 = json.loads((tmp_path / "holo-fig2" / "fig2.meta.json").read_text())
    assert figures == {"holo_residual": holo["max_residual"],
                       "pairing_rel_err": holo["pairing_rel_error"],
                       "burst_arrival_err": workloads.burst_error(fig2["burst_centers"])}
    assert figures["burst_arrival_err"] < 0.2


def test_benchmark_library_calls_run(tmp_path, monkeypatch):
    # the workload operations that call the library directly, not through the
    # CLI, run once and return finite figures with no failed check
    workloads = load_workloads(monkeypatch, lambda name, argv: None)
    ops = [op for make in workloads.WORKLOADS.values() for op in make(0) if op is not None]
    assert {op.name for op in ops} == {"causality-d2-M200", "bessel-d2-d3-M2000",
                                       "convergence-256-4096"}
    for op in ops:
        values = op.run(tmp_path)
        assert values and "check_failed" not in values, (op.name, values)
        assert np.all(np.isfinite(list(values.values()))), (op.name, values)


def test_benchmark_tracer_finds_every_watched_function(monkeypatch):
    # a renamed or deleted function would read 0 in its per-layer metrics
    # without notice: the tracer, loaded afresh as the benchmark loads it,
    # finds every name it watches
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("watched_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    tr = tracer.Tracer()
    try:
        tr.install()
        assert tr.absent == []
        assert "evolve.energy_in_region" in tracer.WATCHED
    finally:
        tr.uninstall()


def test_readme_command_lines_parse():
    # every `wentzell ...` line of the README, without its trailing # comment
    argvs = [shlex.split(line.split("#")[0])[1:]
             for line in (ROOT / "README.md").read_text().splitlines()
             if line.startswith("wentzell ")]
    assert {argv[0] for argv in argvs} == {"verify", "modes", "evolve", "twopoint", "holo"}
    parser = cli.build_parser()
    for argv in argvs:
        args = parser.parse_args(argv)
        assert args.func.__name__ == f"cmd_{argv[0]}"


def test_modes_command(tmp_path, monkeypatch):
    # each run, cache miss or hit, evaluates the eigenvalue residuals once
    calls = []

    def counted(*args):
        calls.append(1)
        return residuals(*args)

    residuals = modes._residuals
    monkeypatch.setattr(modes, "_residuals", counted)
    cache = tmp_path / "cache"
    out = tmp_path / "table.json"
    code = main(["modes", "--S", "1", "--c", "1", "--mu", "1", "--max", "200",
                 "--cache-dir", str(cache), "--out", str(out)])
    assert code == 0 and len(calls) == 1
    doc = json.loads(out.read_text())
    assert doc["M_max"] == 200 and len(doc["entries"]) == 201
    # format v4: the table is keyed by (S, c, mu, M_max) and nothing else
    assert set(doc) == {"S", "c", "mu", "M_max", "entries"}
    cached = list(cache.glob("modes_*.json"))
    assert [f.name for f in cached] == ["modes_v4_S1.0_c1.0_mu1.0_M200.json"]
    # the export is the cache file's text, written from the table itself
    assert out.read_bytes() == cached[0].read_bytes()
    checksum = sha(cached[0])
    # warm rerun: cache hit, byte-identical file
    assert main(["modes", "--S", "1", "--c", "1", "--mu", "1", "--max", "200",
                 "--cache-dir", str(cache)]) == 0
    assert sha(cached[0]) == checksum and len(calls) == 2


def test_written_files_respect_the_umask(tmp_path):
    cache = tmp_path / "cache"
    out = tmp_path / "table.json"
    old = os.umask(0o022)
    try:
        assert main(["modes", "--max", "5", "--cache-dir", str(cache),
                     "--out", str(out)]) == 0
    finally:
        os.umask(old)
    (cached,) = cache.glob("modes_*.json")
    assert oct(cached.stat().st_mode & 0o777) == oct(0o644)
    assert oct(out.stat().st_mode & 0o777) == oct(0o644)


def test_modes_accepts_a_root_at_the_window_top(tmp_path):
    # at c = 1e-17, arctan(1 / (c q_1)) rounds to pi / 2: delta_1 is the window
    # top, which check_solution allows
    assert main(["modes", "--c", "1e-17", "--max", "10", "--cache-dir", str(tmp_path)]) == 0


@pytest.mark.parametrize("args", ["--S 40", "--c 0.01", "--S 10 --c 0.1", "--c 1e12",
                                  "--c 1e-12", "--c 1e20 --max 200"])
def test_modes_passes_correct_tables_off_the_large_m_laws(tmp_path, args):
    # these tables are correct, but their m >= 50 missed windows fitted to the
    # large-m laws, which hold only once c q_m >> 1: the command exited 3
    out = tmp_path / "out.json"
    assert main(["modes", *args.split(), "--cache-dir", str(tmp_path),
                 "--out", str(out)]) == 0
    # a ModeTable refuses non-finite columns
    check_solution(table_from_json(out.read_text()))


def _modes_sweep(n: int, seed: int):
    """``modes`` command lines at n seeded points: S and c log-uniform over
    [1e-3, 1e3] and [1e-12, 1e12], mu = 0 one time in four and otherwise
    log-uniform over [1e-4, 1e4], and --max up to 5 000."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        S, c, mu = (10.0 ** rng.uniform([-3, -12, -4], [3, 12, 4])).tolist()
        if rng.random() < 0.25:
            mu = 0.0
        yield ["modes", "--S", repr(S), "--c", repr(c), "--mu", repr(mu),
               "--max", str(rng.integers(0, 5001))]


def test_modes_sweep_exits_0(tmp_path, capsys):
    # every parameter of the ranges works: each point builds a table that
    # passes check_solution and writes it, finite, with exit 0
    failed = []
    for i, argv in enumerate(_modes_sweep(60, seed=14)):
        out = tmp_path / f"{i}.json"
        code = main(argv + ["--cache-dir", str(tmp_path / "cache"), "--out", str(out)])
        if code != 0:
            failed.append((argv, code, capsys.readouterr().err))
            continue
        check_solution(table_from_json(out.read_text()))
    assert failed == []


def test_modes_rejects_negative_c(tmp_path):
    assert main(["modes", "--c", "-1", "--cache-dir", str(tmp_path)]) == 1


@pytest.mark.parametrize("args", [["twopoint", "--mu", "nan"], ["twopoint", "--mu", "inf"],
                                  ["modes", "--S", "inf"], ["twopoint", "--c", "inf"],
                                  ["evolve", "--mu", "nan"],
                                  ["twopoint", "--x0-max", "nan"],
                                  ["twopoint", "--x0-max", "inf"],
                                  ["evolve", "--T", "inf"], ["evolve", "--T", "nan"]]
                         # the pulse width must be positive as well as finite
                         + [["evolve", "--scenario", "reflection", "--eps", eps]
                            for eps in ("-0.02", "0", "nan", "inf")],
                         ids=" ".join)
def test_nonfinite_parameters_exit_1_without_output(tmp_path, capsys, args):
    out = tmp_path / "out.csv"
    assert main(args + ["--cache-dir", str(tmp_path / "cache"), "--out", str(out)]) == 1
    assert not out.exists() and not (tmp_path / "cache").exists()
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["modes", "--max", "8000"], ["modes", "--max", "20000"],
                                  ["twopoint", "--max", "3000"],
                                  ["modes", "--S", "0.4", "--max", "5000"],
                                  ["modes", "--S", "0.7", "--max", "10000"]], ids=" ".join)
def test_large_mode_cutoffs_exit_0(tmp_path, args):
    # past q S = 2^12, where the residual is taken in delta form, and the
    # rounding of q - pi (m-1) / 2S; at S = 0.4 and 0.7 q S is not exact in
    # binary, and the trig-form residual alone would exceed 1e-12
    assert main(args + ["--cache-dir", str(tmp_path), "--out", str(tmp_path / "out")]) == 0


def test_cache_env_override(tmp_path, monkeypatch):
    env_cache = tmp_path / "envcache"
    monkeypatch.setenv("WENTZELL_CACHE_DIR", str(env_cache))
    assert main(["modes", "--max", "5"]) == 0
    assert list(env_cache.glob("modes_*.json"))


def test_evolve_gaussian(tmp_path, capsys):
    # the 1e-3 drift figure holds at the default resolution h = 1/512
    out = tmp_path / "run.csv"
    code = main(["evolve", "--grid-n", "1024", "--T", "1.0",
                 "--cache-dir", str(tmp_path), "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    # stepping: <steps> steps x <nodes> nodes in <s> s (<rate> Mcell/s)
    line = next(ln for ln in printed if ln.startswith("stepping: "))
    words = line.split()
    dt = 0.5 * 2.0 / 1024
    assert int(words[1]) == int(np.ceil(1.0 / dt))
    assert int(words[4]) == 1025
    rate = float(words[-2].lstrip("("))
    assert np.isfinite(rate) and rate > 0 and words[-1] == "Mcell/s)"
    cols, data = read_csv(out)
    assert cols[:4] == ["t", "E_bulk", "E_bdy", "E_total"]
    tot = data[:, 3]
    assert np.max(np.abs(tot - tot[0])) / tot[0] < 1e-3
    assert np.allclose(data[:, 3], data[:, 1] + data[:, 2], rtol=1e-12)
    # the printed drift is the largest over the samples, not the last sample's
    grid = Grid1D.for_strip(1.0, 1024)
    z = grid.nodes
    data0 = CauchyData.from_samples(grid, np.exp(-z ** 2 / (2 * 0.1 ** 2)), np.zeros_like(z))
    E0 = energy(make_fdtd_state(data0, PhysicalParams(c=1.0, mu=0.0,
                                                      geometry=Strip(1.0)))).total
    drift = f"{np.max(np.abs(tot - E0)) / E0:.3e}"
    assert f"energy drift over the run: {drift}" in printed


def test_evolve_cfl_validation(tmp_path, capsys):
    assert main(["evolve", "--cfl", "1.5", "--out", str(tmp_path / "x.csv")]) == 1
    # the mass tightens the bound: dt^2 (4/h^2 + mu^2) <= 4 at h = 2/1024
    args = ["evolve", "--mu", "1e4", "--T", "0.1", "--out", str(tmp_path / "m.csv")]
    assert main(args) == 1
    assert not (tmp_path / "m.csv").exists()
    largest = capsys.readouterr().err.rsplit("the largest stable --cfl is ", 1)[1].strip()
    assert float(largest) == pytest.approx(1.0 / np.hypot(1.0, 1e4 / 1024), rel=1e-15)
    assert main(args + ["--cfl", largest]) == 0


@pytest.mark.parametrize("extra, start", [(["--T", "0"], "0"),
                                          (["--scenario", "reflection", "--T", "-0.5"],
                                           "-0.5")])
def test_evolve_rejects_T_at_start_time(tmp_path, capsys, extra, start):
    out = tmp_path / "empty.csv"
    assert main(["evolve", "--grid-n", "64", "--out", str(out)] + extra) == 1
    assert not out.exists()
    assert f"start time {start};" in capsys.readouterr().err


def test_evolve_nonfinite_exits_2_without_csv(tmp_path, capsys, monkeypatch):
    # the one-sided boundary closure is unstable at small c for dt = h/2
    steps = []

    def counting_samples(state, n_steps, every):
        for sample in fdtd_samples(state, n_steps, every):
            steps.append(len(sample.bdy_trace))
            yield sample

    monkeypatch.setattr(cli, "fdtd_samples", counting_samples)
    out = tmp_path / "small_c.csv"
    code = main(["evolve", "--c", "1e-4", "--grid-n", "256", "--T", "20",
                 "--out", str(out)])
    assert code == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert "non-finite field values at t = 0.515625" in captured.err
    assert "energy drift" not in captured.out
    # the run stops at the end of the 1 024-step chunk that holds the first
    # non-finite sample (step 132), not after all 5120 steps
    assert 0 < sum(steps) <= 1024


def test_evolve_reflection(tmp_path):
    out = tmp_path / "refl.csv"
    code = main(["evolve", "--scenario", "reflection", "--S", "1.25",
                 "--grid-n", "2560", "--T", "1.5", "--out", str(out)])
    assert code == 0
    header = {ln.split("=")[0].strip("# "): ln.split("=")[1].strip()
              for ln in out.read_text().splitlines() if ln.startswith("#")}
    assert header["c"] == "1.0" and header["eps"] == "0.02"
    sup = float(header["sup_residual"])
    assert 0.0 < sup < 0.1
    cols, data = read_csv(out)
    assert cols[4:] == ["phi_bdy_minus", "phi_bdy_plus", "phi_bdy_exact", "residual"]
    assert np.all(np.isfinite(data))
    # the residual column is the trace's distance from the closed form, bit for bit
    col = {name: data[:, i] for i, name in enumerate(cols)}
    assert np.array_equal(col["residual"],
                          np.abs(col["phi_bdy_minus"] - col["phi_bdy_exact"]))
    assert np.max(col["residual"]) == sup


def test_evolve_blocks_do_not_depend_on_the_sample_interval(tmp_path, monkeypatch):
    # --grid-n 1024 --T 2 samples every 5 of its 2 048 steps.  It steps two
    # 1 024-step chunks of 32-step blocks (it took 410 blocks of 5), and
    # calls energy() for its first level and at the end of each chunk
    import wentzell.evolve as evolve

    applied, levels = [], []

    class CountingEdge(np.ndarray):
        def __matmul__(self, other):
            applied.append(len(self))
            return np.asarray(self) @ other

    def counted_operators(*args):
        return {K: op.view(CountingEdge) for K, op in block_operators(*args).items()}

    def counted_energy(state):
        levels.append(round(state.t / state.dt))
        return energy(state)

    block_operators = evolve._block_operators
    monkeypatch.setattr(evolve, "_block_operators", counted_operators)
    monkeypatch.setattr(cli, "energy", counted_energy)
    out = tmp_path / "e.csv"
    assert main(["evolve", "--grid-n", "1024", "--T", "2", "--out", str(out)]) == 0
    # each block of K = 32 applies its edge operator's 3K - 1 boundary and
    # (x, d) rows once
    assert applied == [95] * 64
    assert levels == [0, 1024, 2048]
    assert len(read_csv(out)[1]) == 410


_TIE_RUNS = [f"evolve --grid-n 64 --T 20 --c {c} --mu {mu} --cfl {cfl}"
             for c in (0.05, 1, 30) for mu in (0, 1, 7) for cfl in (0.5, 0.3)] + [
    "evolve --grid-n 256 --T 8",
    "evolve --scenario reflection --grid-n 512",
    "evolve --grid-n 512 --T 3 --mu 1",
    "evolve --scenario mode --grid-n 256 --T 10 --mu 1",
]


@pytest.mark.parametrize("args", _TIE_RUNS)
def test_evolve_energy_is_the_energy_of_the_sampled_states(tmp_path, monkeypatch, args):
    # E_total, read off each chunk's end-node trace through the closure's
    # energy balance, against energy() of the states that fdtd_samples
    # yields at the same steps, over runs of more than one chunk: the
    # default run and the benchmark's three on smaller grids, and a small
    # grid over c, mu and the CFL factor
    runs = []

    def recorded(state, n_steps, every):
        runs.append((state, n_steps))
        return fdtd_samples(state, n_steps, every)

    monkeypatch.setattr(cli, "fdtd_samples", recorded)
    out = tmp_path / "e.csv"
    assert main(shlex.split(args) + ["--cache-dir", str(tmp_path), "--out", str(out)]) == 0
    ((s0, n_steps),) = runs
    assert n_steps > 1024
    E0 = energy(s0).total
    ref = [energy(s).total for s in fdtd_samples(s0, n_steps, max(1, n_steps // 400))]
    assert np.max(np.abs(read_csv(out)[1][:, 3] - ref)) <= 1e-12 * E0


def test_evolve_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["evolve", "--grid-n", "128", "--T", "0.5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_write_csv_matches_the_per_row_format(tmp_path):
    # the column pass writes the bytes of one repr join per row: floats,
    # holo's object array with an integer m column, a single row, and rows
    # that fill two pieces and start a third
    rng = np.random.default_rng(3)
    floats = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-300, 300, (40, 3))
    holo = np.column_stack([np.arange(7).astype(object), rng.random(7), -rng.random(7)])
    pieces = rng.standard_normal((2 * cli._CSV_PIECE_ROWS + 1, 3))
    path = tmp_path / "t.csv"
    for rows in (floats, holo, np.array([1.5, -0.0, 5e-324]), pieces):
        cli.write_csv(path, {"k": 1}, ["a", "b", "c"], rows)
        per_row = [",".join(map(repr, r)) for r in np.atleast_2d(rows).tolist()]
        assert path.read_text() == "\n".join(["# k = 1", "a,b,c"] + per_row) + "\n"


def test_twopoint_halfspace(tmp_path):
    out = tmp_path / "hs.csv"
    code = main(["twopoint", "--geometry", "halfspace", "--mu", "1",
                 "--n-x0", "5", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.with_suffix(".report.json").read_text())
    assert rep["check_within_1e-13"]
    assert rep["weight_normalization_times_c"] == pytest.approx(1.0, abs=1e-13)


def test_twopoint_halfspace_reports_its_quadrature(tmp_path):
    # --c 10000 puts the weight's pole 1e-4 from the real s axis; at --c 1e160
    # (c q)^2 overflows at every q > 1.4e-6, where the weight is 0 to rounding
    for c, x0_max in ((1.0, 50.0), (10000.0, 5.0), (1e160, 5.0)):
        out = tmp_path / f"hs{c:g}.csv"
        assert main(["twopoint", "--geometry", "halfspace", "--c", str(c),
                     "--x0-max", str(x0_max), "--n-x0", "11", "--out", str(out)]) == 0
        rep = json.loads(out.with_suffix(".report.json").read_text())
        _, data = read_csv(out)
        assert data.shape == (11, 3) and np.all(np.isfinite(data))
        assert rep["quad_error"] <= 1e-10 * data[0, 1]  # the tolerance times W(0)
        assert rep["check_within_1e-13"]
        # no panel spans more than the phase cap at mu = 1, q_max = 200
        assert rep["quad_panels"] * _HALFSPACE_PHASE >= (np.hypot(1.0, 200.0) - 1.0) * x0_max


def test_twopoint_halfspace_unresolved_exits_2_without_csv(tmp_path, capsys):
    # both layouts exceed the panel cap, which is checked before any sum and,
    # at 1e300, before any overflow (RuntimeWarning is an error under pytest)
    out = tmp_path / "hs.csv"
    for extra in (["--x0-max", "1000", "--q-max", "1000"], ["--x0-max", "1e300"]):
        assert main(["twopoint", "--geometry", "halfspace", "--n-x0", "11",
                     "--out", str(out)] + extra) == 2
        err = capsys.readouterr().err
        assert "did not converge" in err and "would exceed 16384" in err
        assert not out.exists()
        assert not out.with_suffix(".report.json").exists()


def _runs(*cases):
    """Parameters (argv, exit code, stderr text) with the command line as id."""
    return [pytest.param(shlex.split(cmd), code, message, id=cmd)
            for cmd, code, message in cases]


@pytest.mark.parametrize("args, code, message", _runs(
    ("twopoint --geometry halfspace --c 1e-300", 0, ""),
    ("twopoint --geometry halfspace --c 1e-310", 1, "normalization 1/c overflows"),
    ("twopoint --geometry halfspace --c 1e-200 --mu 1e-200", 1,
     "tail bound arctan(1 / (c q_max)) / (pi c mu) overflows"),
))
def test_twopoint_halfspace_tiny_couplings(tmp_path, capsys, args, code, message):
    # q = sinh(s) / c overflowed below c = 6e-292, and 1 / (pi c^2 mu q_max)
    # below c = 1e-154: every report field is finite, or the run exits 1
    out = tmp_path / "hs.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args + ["--n-x0", "11", "--out", str(out)]) == code
    if code:
        assert message in capsys.readouterr().err
        assert not out.exists()
        return
    rep = json.loads(out.with_suffix(".report.json").read_text())
    assert all(np.isfinite(v) for v in rep.values())
    assert rep["check_within_1e-13"]
    assert np.all(np.isfinite(read_csv(out)[1]))


@pytest.mark.parametrize("args, code, message", _runs(
    ("modes --c 1e20 --max 20", 0, ""),
    ("modes --c 1e100 --max 20", 0, ""),
    ("modes --c 1e300 --max 20", 0, ""),
    ("twopoint --c 1e160 --max 50", 0, ""),
    ("holo --c 1e160", 1, "have the same frequency in double precision"),
    ("modes --c 1e306 --max 20", 1, "is outside [8.9e-308, 1.79e+305]"),
))
def test_large_couplings_solve_or_name_the_limit(tmp_path, capsys, args, code, message):
    # the delta-form Newton ran out of steps for m = 1 from about c = 1e100,
    # and 1 / (c q) divided by zero from c = 1e20: each run now builds a table
    # that passes check_solution, or exits 1 naming the limit it hit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args + ["--cache-dir", str(tmp_path),
                            "--out", str(tmp_path / "out")]) == code
    if code:
        assert message in capsys.readouterr().err
        return
    (path,) = tmp_path.glob("modes_*.json")
    check_solution(table_from_json(path.read_text()))


@pytest.mark.parametrize("args, code, message", _runs(
    ("evolve --S 1e160", 1, "the strip half-width S = 1e+160 is too large"),
    ("evolve --S 1e160 --scenario mode", 1, "the strip half-width S = 1e+160 is too large"),
    ("evolve --S 1e160 --scenario reflection", 1,
     "the strip half-width S = 1e+160 is too large"),
    ("twopoint --S 1e160", 1, "overflows a double at S = 1e+160, c = 1:"),
    ("twopoint --S 1e160 --c 1e160", 0, ""),
    ("evolve --S 1e-300", 1, "--T 2 takes 2.048e+303 steps"),
))
def test_extreme_strip_widths_run_or_name_the_parameter(tmp_path, capsys, args, code,
                                                       message):
    # dt ** 2 (evolve) and S ** 2 (the strip's tail bound) raised a bare
    # OverflowError (exit 2) at --S 1e160, and --S 1e-300 exited 1 with
    # numpy's "Maximum allowed dimension exceeded": every written number is
    # finite, or the run exits 1 naming the parameter
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args + ["--cache-dir", str(tmp_path), "--out", str(out)]) == code
    if code:
        assert message in capsys.readouterr().err
        assert not out.exists()
        return
    assert np.all(np.isfinite(read_csv(out)[1]))
    rep = json.loads(out.with_suffix(".report.json").read_text())
    assert all(np.isfinite(v) for v in rep.values())


def _scipy_modules_after(code: str, cwd: Path) -> list[str]:
    """The scipy modules loaded after running ``code`` in a fresh interpreter."""
    code += ("\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_leaves_out_scipy(tmp_path):
    assert _scipy_modules_after("import wentzell.cli, wentzell.acceptance", tmp_path) == []


_RUNS_WITHOUT_SCIPY = [
    ["modes", "--max", "20"],
    ["evolve", "--grid-n", "64", "--T", "0.5"],
    ["evolve", "--scenario", "mode", "--grid-n", "64", "--T", "0.5"],
    ["twopoint", "--max", "20", "--n-x0", "5"],
    ["twopoint", "--geometry", "halfspace", "--x0-max", "1", "--n-x0", "5"],
    ["holo"],
]


def test_default_commands_leave_out_scipy(tmp_path):
    code = ("from wentzell.cli import main\n"
            f"for args in {_RUNS_WITHOUT_SCIPY!r}:\n"
            "    assert main(args + ['--cache-dir', 'cache']) == 0, args")
    assert _scipy_modules_after(code, tmp_path) == []


def test_reflection_scenario_loads_scipy_special(tmp_path):
    code = ("from wentzell.cli import main\n"
            "assert main(['evolve', '--scenario', 'reflection', '--grid-n', '64', "
            "'--T', '0']) == 0")
    assert "scipy.special" in _scipy_modules_after(code, tmp_path)


def test_twopoint_strip(tmp_path):
    out = tmp_path / "st.csv"
    code = main(["twopoint", "--geometry", "strip", "--mu", "1", "--max", "50",
                 "--n-x0", "5", "--cache-dir", str(tmp_path), "--out", str(out)])
    assert code == 0
    rep = json.loads(out.with_suffix(".report.json").read_text())
    # the table holds the M + 1 modes the sum reads, no more
    (cached,) = tmp_path.glob("modes_*.json")
    assert cached.name == "modes_v4_S1.0_c1.0_mu1.0_M50.json"
    assert len(json.loads(cached.read_text())["entries"]) == 51
    assert rep == {"tail_bound": strip_tail_bound(50, 1.0, 1.0)}
    assert f"# tail_bound = {rep['tail_bound']!r}" in out.read_text().splitlines()
    cols, data = read_csv(out)
    assert cols == ["x0", "re", "im"]
    assert data[0, 2] == 0.0  # imaginary part vanishes at coincidence


def test_holo_gaussian(tmp_path):
    out = tmp_path / "img"
    code = main(["holo", "--mu", "1", "--out", str(out)])
    assert code == 0
    meta = json.loads(out.with_suffix(".meta.json").read_text())
    assert meta["max_residual"] < 1e-13
    assert meta["pairing_rel_error"] < 1e-13
    assert out.with_suffix(".fhat.csv").exists()
    assert out.with_suffix(".fprime.csv").exists()


def test_holo_requires_mass_without_fig2(tmp_path):
    assert main(["holo", "--mu", "0", "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("extra", [[], ["--fig2"]])
def test_holo_rejects_cutoff_beyond_table(tmp_path, capsys, extra):
    # holo builds 48 modes, holo --fig2 64: neither can honour --max 100
    out = tmp_path / "img"
    assert main(["holo", "--max", "100", "--out", str(out)] + extra) == 1
    assert "cutoff M=100 exceeds" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("extra", [[], ["--fig2"]], ids=["gaussian", "fig2"])
def test_holo_fhat_csv_is_the_extension(tmp_path, monkeypatch, extra):
    # .fhat.csv holds one row per included mode, fhat'(+omega_m); with the
    # header's tau it rebuilds the image's extension, and so its f', bit for bit
    made = []
    for name in ("holographic_dual", "fig2_reproduce"):
        def record(*args, _fn=getattr(cli, name), **kwargs):
            made.append(_fn(*args, **kwargs))
            return made[-1]
        monkeypatch.setattr(cli, name, record)
    out = tmp_path / "img"
    assert main(["holo", "--out", str(out)] + extra) == 0
    image = made[0][0] if extra else made[0]
    ext = image.extension
    path = out.with_suffix(".fhat.csv")
    header = dict(ln[2:].split(" = ") for ln in path.read_text().splitlines()
                  if ln.startswith("#"))
    cols, data = read_csv(path)
    assert cols == ["m", "omega", "re", "im"] and data.shape == (ext.modes.size, 4)
    assert path.read_text().splitlines()[len(header) + 1].startswith(f"{ext.modes[0]},")
    back = FreqExtension(float(header["tau"]), data[:, 0].astype(int), data[:, 1],
                         data[:, 2] + 1j * data[:, 3])
    assert back.tau == ext.tau and np.array_equal(back.modes, ext.modes)
    assert np.array_equal(back.beta, ext.beta)
    w = np.linspace(-1.1, 1.1, 20001) * ext.omegas[-1]
    assert np.array_equal(back(w), ext(w))
    assert np.array_equal(back.fprime(image.t_grid), image.fprime)


@pytest.mark.parametrize("args, code", [(["--S", "0.01"], 0), (["--mu", "0.01"], 0),
                                        (["--c", "1e3"], 0), (["--mu", "1e-9"], 1)],
                         ids=["S-0.01", "mu-0.01", "c-1e3", "mu-1e-9"])
def test_holo_close_frequencies_run_or_exit_1(tmp_path, capsys, args, code):
    # tau = 3 / g grows as the closest included frequencies g close up; the
    # window |t| <= 8.6 tau then takes 2.6e4 times (--S 0.01, --mu 0.01) and
    # 1.0e6 (--c 1e3).  --mu 1e-9 would take 2.6e11 and is refused before
    # the grid is built, at a small traced peak
    out = tmp_path / "img"
    if code == 0:
        assert main(["holo", "--out", str(out)] + args) == 0
        cols, data = read_csv(out.with_suffix(".fprime.csv"))
        assert data.shape[0] > 2 ** 14 and np.all(np.isfinite(data))
        meta = json.loads(out.with_suffix(".meta.json").read_text())
        assert meta["max_residual"] < 1e-13 and np.isfinite(meta["pairing_rel_error"])
        return
    tracemalloc.start()
    try:
        assert main(["holo", "--out", str(out)] + args) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert "time samples, more than 2097152" in err and "raise --mu" in err
    assert peak < 50e6
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args, code, message", _runs(
    ("holo --S 20", 0, ""),
    ("holo --S 5 --mu 5", 0, ""),
    ("holo --mu 40", 1, "vanishes on the 128-interval grid and the one before it, "
                        "to rounding"),
    ("holo --S 693 --mu 1730 --c 2.3e-6 --max 1", 1,
     "below the space step 0.338 of its finest grid"),
))
def test_holo_small_images_run_or_exit_1(tmp_path, capsys, args, code, message):
    # each doubled its smearing grid to 4096 intervals and exited 2: the level
    # differences sat at rounding, or a time step of h could not sample
    # omega_max.  The rounding floor ends the doubling, and an image at or
    # below it, or a time step below the finest space step, is refused
    out = tmp_path / "img"
    assert main(args + ["--out", str(out)]) == code
    if code:
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        return
    meta = json.loads(out.with_suffix(".meta.json").read_text())
    assert meta["smear_floor"] > 0.0 and meta["max_residual"] < 1e-13
    assert np.all(np.isfinite(read_csv(out.with_suffix(".fprime.csv"))[1]))


def test_holo_largest_default_cutoff_exits_0(tmp_path):
    # --max 48, the table's last mode: tau is set by the lowest gap, so the
    # window is the default one, sampled up to omega_48
    out = tmp_path / "img"
    assert main(["holo", "--max", "48", "--out", str(out)]) == 0
    cols, data = read_csv(out.with_suffix(".fhat.csv"))
    assert data[:, 0].tolist() == list(range(49))
    assert np.all(np.isfinite(read_csv(out.with_suffix(".fprime.csv"))[1]))


@pytest.mark.parametrize("extra", [[], pytest.param(["--fig2"], marks=pytest.mark.slow)],
                         ids=["gaussian", "fig2"])
def test_holo_byte_identical(tmp_path, extra):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["holo", "--out", str(a)] + extra) == 0
    assert main(["holo", "--out", str(b)] + extra) == 0
    for suffix in (".fhat.csv", ".fprime.csv", ".meta.json"):
        assert a.with_suffix(suffix).read_bytes() == b.with_suffix(suffix).read_bytes()
    # f' is real: every field of its column parses as a float
    cols, data = read_csv(a.with_suffix(".fprime.csv"))
    assert cols == ["t", "fprime"] and data.dtype == np.float64 and data.shape[1] == 2


@pytest.mark.slow
def test_holo_fig2(tmp_path):
    out = tmp_path / "fig2"
    code = main(["holo", "--fig2", "--out", str(out)])
    assert code == 0
    meta = json.loads(out.with_suffix(".meta.json").read_text())
    centers = np.array(meta["burst_centers"])
    for expect in (-5, -3, -1, 1, 3, 5):
        assert np.min(np.abs(centers - expect)) <= 0.2
    assert meta["tau"] == pytest.approx(2.5676, abs=1e-4)
    cols, data = read_csv(out.with_suffix(".fprime.csv"))
    assert cols == ["t", "fprime"]
    # the window |t| <= 22.0 holds f': its ends are rounding against its peak
    assert data.shape == (755, 2) and np.all(np.isfinite(data))
    assert data[-1, 0] == -data[0, 0] == pytest.approx(22.04, abs=0.01)
    assert np.max(np.abs(data[[0, -1], 1])) <= 1e-15 * np.max(np.abs(data[:, 1]))


@pytest.mark.slow
def test_verify_exit_code(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["all_passed"] and len(doc["criteria"]) == 12
