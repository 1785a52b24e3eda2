"""Run one workload of the osora benchmark and print its metrics as JSON.

    python3 perfbench/run.py --workload train_steps --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ./src. One
process, one caller, a closed loop (each job starts when the previous one
ends). Job times are also expressed in units of a fixed reference kernel
timed around each job (see reference.py). The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics (from spans around
osora's functions) with --trace 1. Exits 1 if any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# BLAS threads, fixed before numpy is imported; never more than the CPUs.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOAD_NAMES = ("train_steps", "adapt_build", "lab_cli")


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=_nonnegative)
    p.add_argument("--seconds", required=True, type=_positive)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(wl, seconds: float, tracer) -> dict:
    """Set up `wl.setups` times, then run jobs until `seconds` have passed.

    The reference kernel runs before the first job and after every job, so
    each job sits between two reference times taken on either side of it.
    """
    from reference import reference_s
    from tracing import SETUP_JOB

    setup_times = []
    for i in range(wl.setups):
        t0 = time.perf_counter()
        wl.setup(i)
        setup_times.append(time.perf_counter() - t0)

    job_times, refs, outputs, failed = [], [reference_s()], [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        j = len(job_times)
        inputs = wl.inputs(j)
        if tracer:
            tracer.job = j
        t0 = time.perf_counter()
        f, out = wl.job(j, inputs)
        job_times.append(time.perf_counter() - t0)
        refs.append(reference_s())
        failed += f
        outputs.append(out)
    loop_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.active = False
        tracer.job = SETUP_JOB
    return {
        "setup_times": setup_times,
        "job_times": job_times,
        "job_refs": [t / ((a + b) / 2.0) for t, a, b in zip(job_times, refs, refs[1:])],
        "ref_s": statistics.median(refs),
        "loop_s": loop_s,
        "peak_rss_mb": peak_rss_mb,
        "failed": failed,
        "outputs": outputs,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "osora" / "__init__.py").is_file():
        print(f"perfbench: no osora package under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    cpus = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(min(BLAS_THREADS, cpus))
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # verify's persist suite writes through tempfile; keep it inside the checkout.
    os.environ["TMPDIR"] = str(work)
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np
    import osora.cli  # noqa: F401  (loads every osora module before tracing wraps them)

    import checks
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.active = True
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "blas_threads": os.environ[BLAS_VARS[0]], "cpus": cpus,
        "numpy": np.__version__, "python": platform.python_version(),
    }))
    try:
        presets = checks.read_presets(ROOT / "src" / "osora" / "data" / "presets.ini")
        wl = workloads.WORKLOADS[args.workload](args.seed, work, presets)
        res = measure(wl, args.seconds, tracer)
        problems = wl.check(res["outputs"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    jobs = len(res["job_times"])
    job_ref_p50 = statistics.median(res["job_refs"])
    if tracer:
        metrics = {name: {"value": value, "unit": tracing.METRICS[name]}
                   for name, value in tracer.metrics(jobs, job_ref_p50).items()}
        path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(path)
        print(f"trace: {len(tracer.spans)} spans in {path.relative_to(ROOT)}")
    else:
        metrics = {
            "jobs_per_ref": {"value": jobs / sum(res["job_refs"]), "unit": "1/ref"},
            "job_ref.p50": {"value": job_ref_p50, "unit": "ref"},
            "setup_s": {"value": statistics.median(res["setup_times"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    print(f"jobs={jobs} loop_s={res['loop_s']:.3f} jobs_per_s={jobs / res['loop_s']:.4f}"
          f" job_s.p50={statistics.median(res['job_times']):.4f} ref_s.p50={res['ref_s']:.5f}"
          f" setup_times={[round(t, 4) for t in res['setup_times']]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": jobs * wl.ops_per_job,
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
