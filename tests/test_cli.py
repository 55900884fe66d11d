import hashlib
import json

import numpy as np
import pytest

from wentzell import cli
from wentzell.cli import main, table_from_json, table_to_json
from wentzell.evolve import fdtd_run
from wentzell.modes import build_table
from wentzell.core import PhysicalParams, Strip


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
    back = table_from_json(table_to_json(table))
    assert back.qs.tolist() == table.qs.tolist()
    assert back.d_bdys.tolist() == table.d_bdys.tolist()
    assert back.params == table.params


def test_modes_command(tmp_path):
    cache = tmp_path / "cache"
    out = tmp_path / "table.json"
    code = main(["modes", "--S", "1", "--c", "1", "--mu", "1", "--max", "200",
                 "--cache-dir", str(cache), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["M_max"] == 200 and len(doc["entries"]) == 201
    cached = list(cache.glob("modes_*.json"))
    assert len(cached) == 1
    checksum = sha(cached[0])
    # warm rerun: cache hit, byte-identical file
    assert main(["modes", "--S", "1", "--c", "1", "--mu", "1", "--max", "200",
                 "--cache-dir", str(cache)]) == 0
    assert sha(cached[0]) == checksum


def test_modes_rejects_negative_c(tmp_path):
    assert main(["modes", "--c", "-1", "--cache-dir", str(tmp_path)]) == 1


def test_cache_env_override(tmp_path, monkeypatch):
    env_cache = tmp_path / "envcache"
    monkeypatch.setenv("WENTZELL_CACHE_DIR", str(env_cache))
    assert main(["modes", "--max", "5"]) == 0
    assert list(env_cache.glob("modes_*.json"))


def test_evolve_gaussian(tmp_path):
    # the 1e-3 drift figure holds at the default resolution h = 1/512
    out = tmp_path / "run.csv"
    code = main(["evolve", "--grid-n", "1024", "--T", "1.0",
                 "--cache-dir", str(tmp_path), "--out", str(out)])
    assert code == 0
    cols, data = read_csv(out)
    assert cols[:4] == ["t", "E_bulk", "E_bdy", "E_total"]
    tot = data[:, 3]
    assert np.max(np.abs(tot - tot[0])) / tot[0] < 1e-3
    assert np.allclose(data[:, 3], data[:, 1] + data[:, 2], rtol=1e-12)


def test_evolve_cfl_validation(tmp_path):
    assert main(["evolve", "--cfl", "1.5", "--out", str(tmp_path / "x.csv")]) == 1


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

    def counting_run(state, n):
        steps.append(n)
        return fdtd_run(state, n)

    monkeypatch.setattr(cli, "fdtd_run", counting_run)
    out = tmp_path / "small_c.csv"
    code = main(["evolve", "--c", "1e-4", "--grid-n", "256", "--T", "20",
                 "--out", str(out)])
    assert code == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert "non-finite field values at t = 0.515625" in captured.err
    assert "energy drift" not in captured.out
    # the run stops at the first non-finite sample, not after all 5120 steps
    assert sum(steps) <= 132


def test_evolve_reflection(tmp_path):
    out = tmp_path / "refl.csv"
    code = main(["evolve", "--scenario", "reflection", "--S", "1.25",
                 "--grid-n", "2560", "--T", "1.5", "--out", str(out)])
    assert code == 0
    header = {ln.split("=")[0].strip("# "): ln.split("=")[1].strip()
              for ln in out.read_text().splitlines() if ln.startswith("#")}
    assert float(header["sup_residual"]) < 0.1
    cols, data = read_csv(out)
    assert "residual" in cols


def test_evolve_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["evolve", "--grid-n", "128", "--T", "0.5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_twopoint_halfspace(tmp_path):
    out = tmp_path / "hs.csv"
    code = main(["twopoint", "--geometry", "halfspace", "--mu", "1",
                 "--n-x0", "5", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.with_suffix(".report.json").read_text())
    assert rep["check_within_1e-8"]
    assert rep["weight_normalization_times_c"] == pytest.approx(1.0, abs=1e-8)


def test_twopoint_strip(tmp_path):
    out = tmp_path / "st.csv"
    code = main(["twopoint", "--geometry", "strip", "--mu", "1", "--max", "50",
                 "--n-x0", "5", "--cache-dir", str(tmp_path), "--out", str(out)])
    assert code == 0
    rep = json.loads(out.with_suffix(".report.json").read_text())
    assert rep["tail_ratio_in_08_12"]
    cols, data = read_csv(out)
    assert cols == ["x0", "re", "im"]
    assert data[0, 2] == 0.0  # imaginary part vanishes at coincidence


def test_holo_gaussian(tmp_path):
    out = tmp_path / "img"
    code = main(["holo", "--mu", "1", "--out", str(out)])
    assert code == 0
    meta = json.loads(out.with_suffix(".meta.json").read_text())
    assert meta["max_residual"] < 1e-6
    assert meta["pairing_rel_error"] < 1e-5
    assert out.with_suffix(".fhat.csv").exists()
    assert out.with_suffix(".fprime.csv").exists()


def test_holo_requires_mass_without_fig2(tmp_path):
    assert main(["holo", "--mu", "0", "--out", str(tmp_path / "x")]) == 1


@pytest.mark.slow
def test_holo_fig2(tmp_path):
    out = tmp_path / "fig2"
    code = main(["holo", "--fig2", "--out", str(out)])
    assert code == 0
    meta = json.loads(out.with_suffix(".meta.json").read_text())
    centers = np.array(meta["burst_centers"])
    for expect in (-5, -3, -1, 1, 3, 5):
        assert np.min(np.abs(centers - expect)) <= 0.2


@pytest.mark.slow
def test_verify_exit_code(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["all_passed"] and len(doc["criteria"]) == 12
