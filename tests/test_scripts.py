import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def read_csv(path, header):
    """Data rows of a script CSV as floats; a numpy scalar repr fails float()."""
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    assert rows[0] == header
    data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    assert data.ndim == 2 and data.shape[1] == len(header.split(","))
    assert data.shape[0] > 0 and np.all(np.isfinite(data))
    return data


def test_burst_study_smoke(tmp_path):
    out = tmp_path / "fig2.csv"
    proc = run_script("burst_study.py", "--out", out)
    read_csv(out, "t,fprime")
    arrivals = []
    for line in proc.stdout.splitlines():
        fields = line.split()
        try:
            arrivals.append(float(fields[0]))
        except (IndexError, ValueError):
            continue
    arrivals = np.array(arrivals)
    for e in (-5.0, -3.0, -1.0, 1.0, 3.0, 5.0):
        assert np.any(np.abs(arrivals - e) <= 0.2), (e, arrivals)


def test_reflection_experiment_smoke(tmp_path):
    out = tmp_path / "trace.csv"
    proc = run_script("reflection_experiment.py", "--h", 0.001953125, "--out", out)
    data = read_csv(out, "t,phi_bdy_fdtd,phi_bdy_exact,residual")
    assert out.read_text().splitlines()[:4] == [
        "# c = 1.0", "# eps = 0.02", "# h = 0.001953125",
        "t,phi_bdy_fdtd,phi_bdy_exact,residual"]
    assert np.array_equal(data[:, 3], np.abs(data[:, 1] - data[:, 2]))
    sup = float(proc.stdout.split("sup residual")[1].split()[0])
    assert 0.0 < sup < 0.1


def test_convergence_study_smoke():
    proc = run_script("convergence_study.py", "--levels", 128, 256, 512)
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [int(r[0]) for r in rows] == [128, 256, 512]
    assert 1.8 <= float(rows[-1][3]) <= 2.2
