"""The benchmark runs against this checkout: its tracer's names resolve, and each workload's checks pass."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
WORKLOADS = ("train_steps", "adapt_build", "lab_cli")


def _layers() -> dict[str, tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize("span", LAYERS, ids=LAYERS)
def test_traced_layer_resolves(span):
    module, function = LAYERS[span]
    assert module.split(".")[0] == "osora"
    assert callable(getattr(importlib.import_module(module), function, None))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke_run_is_correct(workload):
    # A short run of each workload: a program change that breaks one of the
    # benchmark's output checks fails here, not only in a full benchmark run.
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.2"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stdout
