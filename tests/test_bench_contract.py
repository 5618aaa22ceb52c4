"""The benchmark's contract with gsgs: the names `bench/run.py` steps and the
`gsgs.engine` bindings its tracer rebinds.

Each case runs one short benchmark chain as a subprocess, untraced and
traced, and reads the JSON line it ends with.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Spans the traced run only reports above zero if the tracer's rebinding of
# the engine's and the model's names reaches the step.
TRACED_SPANS = (
    "conjugate.build_ms",
    "conjugate.sample_along_ms",
    "superres.theta_ms",
    "superres.perturbation_ms",
)


@pytest.mark.parametrize("trace", [0, 1])
def test_benchmark_runs_against_this_checkout(trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "desk-k150",
         "--seed", "0", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    if trace:
        for name in TRACED_SPANS:
            assert result["metrics"][name]["value"] > 0, name
