import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def modules_after(tmp_path):
    """A function that runs Python code in a fresh interpreter, in tmp_path, and
    returns the modules loaded after it whose names start with ``prefix`` (a
    string or a tuple of strings)."""
    def run(code: str, prefix: str | tuple[str, ...]) -> list[str]:
        code += ("\nimport json, sys\n"
                 f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefix!r}))))")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, cwd=tmp_path, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    return run
