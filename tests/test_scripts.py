import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def test_burst_study_smoke(tmp_path):
    out = tmp_path / "fig2.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "burst_study.py"),
                           "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert rows[0] == "t,fprime"
    data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    assert data.ndim == 2 and data.shape[1] == 2 and data.shape[0] > 0
    assert np.all(np.isfinite(data))
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
