import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOY_ARGS = {
    "synthetic_benchmark.py": ["--replicates", "2", "--n", "60", "--d", "10"],
    "convergence_study.py": ["--trials", "5", "--n", "10", "--d", "30"],
}


@pytest.mark.parametrize("script", sorted(TOY_ARGS))
def test_script_runs_at_toy_size(script, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *TOY_ARGS[script]],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
