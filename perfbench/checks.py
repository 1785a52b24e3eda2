"""Output checks, run after the timed loop with tracing off.

Each check compares the program's output with a computation made here, apart
from the program (LAPACK through numpy, the README's parameter table, a
merge-based loss, presets.ini parsed with configparser), or with a property
the method must have. A check returns a list of problems; empty means pass.
"""

from __future__ import annotations

import configparser
import csv
import re

import numpy as np
import osora

HEADER_BYTES = 68

# Trainable parameters per d x k target at rank r, from the README's table.
README_COUNTS = {
    "lora": lambda d, k, r: r * (d + k),
    "vera": lambda d, k, r: r + d,
    "pissa": lambda d, k, r: r * (d + k),
    "osora": lambda d, k, r: r + d,
    "osora_k": lambda d, k, r: r + k,
    "dora": lambda d, k, r: r * (d + k) + d,
    "osora_dora": lambda d, k, r: r + 2 * d,
}


def read_presets(path) -> dict[str, tuple[int, tuple[tuple[int, int], ...]]]:
    """presets.ini as {name: (layers, ((d, k), ...))}."""
    parser = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    return {
        name: (
            parser.getint(name, "layers"),
            tuple(tuple(int(x) for x in t.strip().split("x")) for t in parser.get(name, "targets").split(",")),
        )
        for name in parser.sections()
    }


def _max_abs(a) -> float:
    return float(np.abs(a).max())


def svd_factors(where, w, state) -> list[str]:
    """Singular values against LAPACK, orthonormal factors, pissa's b @ a against the top-r truncation."""
    r = state.method.rank
    u, s, vt = np.linalg.svd(w)
    problems = []
    if state.method.tag == "pissa":
        top = (u[:, :r] * s[:r]) @ vt[:r]
        err = _max_abs(state.trainable["b"] @ state.trainable["a"] - top)
        if err > 1e-10 * s[0]:
            problems.append(f"{where}: pissa b @ a differs from the LAPACK rank-{r} truncation by {err:.3e}")
        return problems
    err = _max_abs(state.trainable["s_r"] - s[:r])
    if err > 1e-10 * s[0]:
        problems.append(f"{where}: s_r differs from LAPACK singular values by {err:.3e}")
    for name in ("u_r", "v_r"):
        f = state.frozen[name]
        err = _max_abs(f.T @ f - np.eye(r))
        if err > 1e-10:
            problems.append(f"{where}: {name} is not orthonormal ({err:.3e})")
    return problems


def starts_at_base(where, w, state, x) -> list[str]:
    """forward(x) == w0 @ x at build, to roundoff."""
    ref = w @ x
    err = _max_abs(osora.forward(state, x) - ref)
    if err > 1e-12 * (1.0 + _max_abs(ref)):
        return [f"{where}: forward differs from w0 @ x at build by {err:.3e}"]
    return []


def checkpoint_roundtrip(where, state, loaded, path, x) -> list[str]:
    """Bitwise-equal forward after load, and the README's payload size."""
    problems = []
    if osora.forward(loaded, x).tobytes() != osora.forward(state, x).tobytes():
        problems.append(f"{where}: loaded forward is not bitwise equal to the saved one")
    m = state.method
    expected = HEADER_BYTES + 8 * README_COUNTS[m.tag](state.d, state.k, m.rank)
    size = path.stat().st_size
    if size != expected:
        problems.append(f"{where}: checkpoint is {size} bytes, expected {expected}")
    return problems


def merge_loss(state, x, y) -> float:
    resid = osora.merge(state) @ x - y
    return 0.5 / x.shape[1] * float((resid * resid).sum())


def training(where, state, trace, x, y, coords) -> list[str]:
    """Final loss against the merge-based loss, descent, and central differences against gradient."""
    problems = []
    final = merge_loss(state, x, y)
    if abs(trace[-1] - final) > 1e-10 * trace[0]:
        problems.append(f"{where}: final loss {float(trace[-1])!r} but merged weight gives {final!r}")
    if not trace[-1] < trace[0]:
        problems.append(f"{where}: final loss {float(trace[-1])!r} not below initial {float(trace[0])!r}")
    analytic = osora.gradient(state, x, y).flat()
    work = osora.clone_state(state)
    theta = osora.trainable_vector(work)
    h = 1e-6
    for i in coords:
        losses = []
        for step in (h, -h):
            probe = theta.copy()
            probe[i] += step
            osora.load_trainable(work, probe)
            losses.append(merge_loss(work, x, y))
        fd = (losses[0] - losses[1]) / (2.0 * h)
        if abs(fd - analytic[i]) > 1e-6 * (1.0 + abs(fd)):
            problems.append(f"{where}: gradient[{i}] = {float(analytic[i])!r}, central difference {fd!r}")
    return problems


def decompose_output(where, text, w, rank) -> list[str]:
    """Leading singular values match LAPACK; the trailing ones of a rank-deficient input are <= 1e-12 s0."""
    found = re.search(r"^singular_values=(.*)$", text, re.M)
    if not found:
        return [f"{where}: decompose printed no singular values"]
    values = np.array([float(v) for v in found.group(1).split(",")])
    exact = np.linalg.svd(w, compute_uv=False)
    true_rank = int((exact > 1e-12 * exact[0]).sum())
    problems = []
    if values.size != rank:
        problems.append(f"{where}: decompose printed {values.size} singular values, asked for {rank}")
    elif _max_abs(values[:true_rank] - exact[:true_rank]) > 1e-10 * exact[0]:
        problems.append(f"{where}: decompose singular values differ from LAPACK")
    elif (values[true_rank:] > 1e-12 * values[0]).any():
        problems.append(f"{where}: trailing singular values {values[true_rank:]} exceed 1e-12 s0")
    return problems


def verify_output(where, text) -> list[str]:
    found = re.search(r"^(\d+)/(\d+) checks passed$", text, re.M)
    passes = text.count(" PASS\n")
    if not found or found.group(1) != found.group(2) or int(found.group(1)) != passes or passes == 0:
        return [f"{where}: verify did not report n/n checks passed"]
    return []


def count_csv(where, path, layers, targets) -> list[str]:
    """Each total equals the README closed form summed over targets, times the layers."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    problems = [] if rows else [f"{where}: count wrote no rows"]
    for row in rows:
        method, r = row["method"], int(row["rank"])
        expected = layers * sum(README_COUNTS[method](d, k, r) for d, k in targets)
        if int(row["trainable_params"]) != expected:
            problems.append(f"{where}: {method} r={r} total {row['trainable_params']}, expected {expected}")
    return problems
