"""The lab's invariant checks, and the quick suites behind `osora verify`.

Each `check_*` function takes its instances (matrices, adapter states or the
specs that build them, and probes) and returns CheckResult rows: the worst
observed error and the gate, which lives here and nowhere else. The `verify_*`
suites run the checks on quick lists; the acceptance suite runs them on its own.
"""

from __future__ import annotations

import tempfile
from collections.abc import Iterable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import checkpoint
from .accounting import count_trainable, param_ratio
from .adapters import (
    METHODS,
    AdapterMethod,
    AdapterState,
    build_adapter,
    clone_state,
    forward,
    load_trainable,
    merge,
    trainable_vector,
    weight_digest,
)
from .errors import InvalidConfig
from .gradients import finite_diff, gradient
from .linalg import fro_norm, jacobi_svd, random_matrix


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_err: float
    threshold: float
    passed: bool


def _result(name: str, max_err: float, threshold: float) -> CheckResult:
    return CheckResult(name=name, max_err=max_err, threshold=threshold, passed=max_err <= threshold)


def _worst(errors) -> float:
    """Largest error, 0.0 for none; NaN if any error is NaN, so a NaN never passes its gate."""
    return float(np.max([0.0, *errors]))


def rel_inf(got, want) -> float:
    """Max-abs deviation scaled by 1 + max-abs of the reference."""
    return float(np.abs(np.asarray(got) - np.asarray(want)).max()) / (1.0 + float(np.abs(want).max()))


def _probe_rel_inf(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """rel_inf of each column of got against the same column of want: one probe per column."""
    return np.abs(got - want).max(axis=0) / (1.0 + np.abs(want).max(axis=0))


def _perturb(state: AdapterState, seed: int, scale: float) -> AdapterState:
    """Add seeded noise of size `scale` to state's trainables, in place."""
    theta = trainable_vector(state)
    theta = theta + scale * np.random.default_rng((seed, 101)).standard_normal(theta.size)
    load_trainable(state, theta)
    return state


def perturbed_state(
    tag: str, d: int, k: int, rank: int, seed: int, scale: float = 0.2, **method_kwargs
) -> tuple[AdapterState, np.ndarray]:
    """Adapter over a seeded gaussian base weight with seeded noise of size `scale` on its trainables."""
    w0 = random_matrix(d, k, (seed, 100), "gaussian")
    state = build_adapter(w0, AdapterMethod(tag=tag, rank=rank, **method_kwargs), seed)
    return _perturb(state, seed, scale), w0


def check_svd(matrices: Iterable[np.ndarray]) -> list[CheckResult]:
    """Relative reconstruction error and orthonormality of the full SVD `jacobi_svd`.

    jacobi_svd takes svd_path's two paths, but every shape verify_svd draws
    is below LAPACK_MIN_DIM, so `osora verify svd` checks the Jacobi path
    alone; SVD_PATH_CASES in tests/conftest.py cover the LAPACK path too.
    """
    recon, ortho = [], []
    for w in matrices:
        u, s, v = jacobi_svd(w)
        # Relative to ||w||, or absolute for the zero matrix, whose exact reconstruction reads 0.0.
        err, scale = fro_norm((u * s) @ v.T - w), fro_norm(w)
        recon.append(err / scale if scale > 0.0 else err)
        eye = np.eye(min(w.shape))
        ortho += [float(np.abs(u.T @ u - eye).max()), float(np.abs(v.T @ v - eye).max())]
    return [_result("svd.reconstruction", _worst(recon), 1e-12), _result("svd.orthonormality", _worst(ortho), 1e-10)]


def check_init_identity(cases: Iterable[tuple[np.ndarray, AdapterState, np.ndarray]]) -> list[CheckResult]:
    """Fresh adapters reproduce their base weight: (w0, state, probes) cases, one probe per row.

    Each case takes one forward call and one product with w0 over all its
    probes, as the columns of one C-contiguous x, so both products see the same
    operand layout; each probe's error is its own rel_inf.
    """
    xs = ((w0, state, np.ascontiguousarray(probes.T)) for w0, state, probes in cases)
    errors = [e for w0, state, x in xs for e in _probe_rel_inf(forward(state, x), w0 @ x)]
    return [_result("merge.init_identity", _worst(errors), 1e-12)]


def check_merge(cases: Iterable[tuple[np.ndarray, AdapterState, np.ndarray]]) -> list[CheckResult]:
    """A merged weight reproduces its adapter: (merged, state, probes) cases, one probe per row, batched as above."""
    errors = [
        e for merged, state, probes in cases for e in _probe_rel_inf(merged @ probes.T, forward(state, probes.T))
    ]
    return [_result("merge.equivalence", _worst(errors), 1e-10)]


def check_grad(cases: Iterable[tuple[AdapterState, np.ndarray, np.ndarray]]) -> list[CheckResult]:
    """Analytic gradients against central differences: (state, x, y) cases."""
    errors = [rel_inf(gradient(state, x, y).flat(), finite_diff(state, x, y).flat()) for state, x, y in cases]
    return [_result("grad.analytic_vs_fd", _worst(errors), 1e-6)]


def check_persist(specs: Iterable[tuple], probes: Iterable[np.ndarray]) -> list[CheckResult]:
    """Save, drop and reload `perturbed_state(*spec)`: bitwise on its probe and frozen tensors, sized by the count."""
    bitwise_ok = size_ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for i, (spec, x) in enumerate(zip(specs, probes)):
            state, w0 = perturbed_state(*spec)
            path = Path(tmp) / f"{i}.ckpt"
            checkpoint.save(state, path)
            count = count_trainable(state.method.tag, state.d, state.k, state.method.rank)
            size_ok = size_ok and path.stat().st_size == checkpoint.HEADER_SIZE + 8 * count
            saved = [forward(state, x).tobytes()] + [a.tobytes() for a in state.frozen.values()]
            # Drop the only state holding these frozen tensors, so load re-runs the
            # deterministic build (seeded generators plus the sign-fixed SVD).
            del state
            loaded = checkpoint.load(path, w0)
            got = [forward(loaded, x).tobytes()] + [a.tobytes() for a in loaded.frozen.values()]
            bitwise_ok = bitwise_ok and got == saved
    return [
        _result("persist.roundtrip_bitwise", 0.0 if bitwise_ok else 1.0, 0.0),
        _result("persist.payload_size", 0.0 if size_ok else 1.0, 0.0),
    ]


def check_storage_ratio(d: int, k: int, r: int) -> list[CheckResult]:
    """osora's payload over lora's equals `param_ratio` at one shape."""
    ratio = (8 * count_trainable("osora", d, k, r)) / (8 * count_trainable("lora", d, k, r))
    return [_result("persist.storage_ratio", 0.0 if ratio == param_ratio(d, k, r) else 1.0, 0.0)]


def verify_svd(seed: int = 0) -> list[CheckResult]:
    shapes = [(16, 12), (12, 16), (24, 24), (33, 7), (40, 28)]
    rows = check_svd(random_matrix(d, k, (seed, 200 + i), "gaussian") for i, (d, k) in enumerate(shapes))

    # Known spectrum: assemble from the orthogonal QR factors of seeded matrices.
    q1 = np.linalg.qr(random_matrix(20, 20, (seed, 210), "gaussian"))[0]
    q2 = np.linalg.qr(random_matrix(14, 14, (seed, 211), "gaussian"))[0]
    sigma = np.linspace(2.0, 0.5, 14)
    w = (q1[:, :14] * sigma) @ q2.T
    s_hat = jacobi_svd(w)[1]
    spectrum_err = float(np.abs(s_hat - sigma).max() / sigma.max())

    w = random_matrix(18, 11, (seed, 212), "gaussian")
    a = jacobi_svd(w)
    b = jacobi_svd(w.copy())
    identical = all(x.tobytes() == y.tobytes() for x, y in zip(a, b))

    return rows + [
        _result("svd.known_spectrum", spectrum_err, 1e-8),
        _result("svd.determinism", 0.0 if identical else 1.0, 0.0),
    ]


def verify_grad(seed: int = 0) -> list[CheckResult]:
    return check_grad(
        (
            perturbed_state(tag, 8, 6, 2, (seed + i) % 2**64, scale=0.1)[0],
            np.random.default_rng((seed, 300 + i)).standard_normal((6, 10)),
            np.random.default_rng((seed, 310 + i)).standard_normal((8, 10)),
        )
        for i, tag in enumerate(METHODS)
    )


def _perturbed_copy(state: AdapterState) -> AdapterState:
    """A clone whose u_r (osora family) or else w0 is off by 1e-3 in one entry, with the digest of the w0 it holds."""
    frozen = {name: arr.copy() for name, arr in state.frozen.items()}
    target = next(name for name in ("u_r", "w0") if name in frozen)
    frozen[target][0, 0] += 1e-3
    for arr in frozen.values():
        arr.setflags(write=False)
    return replace(clone_state(state), frozen=frozen, w0_digest=weight_digest(frozen["w0"]))


def verify_merge(seed: int = 0, inject_fault: bool = False) -> list[CheckResult]:
    """Init identity of fresh adapters, and merge equivalence of a perturbed clone of each (same frozen tensors)."""
    rng = np.random.default_rng((seed, 400))
    fresh, trained = [], []
    for i, tag in enumerate(METHODS):
        w0 = random_matrix(10, 8, (seed, 410 + i), "gaussian")
        state_seed = (seed + i) % 2**64
        state = build_adapter(w0, AdapterMethod(tag=tag, rank=3), state_seed)
        fresh.append((w0, state, rng.standard_normal((20, 8))))
        state = _perturb(clone_state(state), state_seed, 0.1)
        merged = merge(_perturbed_copy(state) if inject_fault else state)
        trained.append((merged, state, rng.standard_normal((20, 8))))
    return check_init_identity(fresh) + check_merge(trained)


def verify_persist(seed: int = 0) -> list[CheckResult]:
    specs = [(tag, 9, 7, 2, (seed + i) % 2**64, 0.1) for i, tag in enumerate(METHODS)]
    probes = [np.random.default_rng((seed, 510 + i)).standard_normal(7) for i in range(len(METHODS))]
    return check_persist(specs, probes) + check_storage_ratio(12, 9, 3)


# Scope -> suite. Each entry looks its suite up by name when called, so a
# wrapper installed over the module attribute (perfbench's tracer) sees it.
SUITES = {
    "svd": lambda seed, inject_fault: verify_svd(seed),
    "grad": lambda seed, inject_fault: verify_grad(seed),
    "merge": lambda seed, inject_fault: verify_merge(seed, inject_fault=inject_fault),
    "persist": lambda seed, inject_fault: verify_persist(seed),
}
SCOPES = (*SUITES, "all")


def run_scope(scope: str, seed: int = 0, inject_fault: bool = False) -> list[CheckResult]:
    if scope not in SCOPES:
        raise InvalidConfig(f"scope must be one of {SCOPES}, got {scope!r}")
    return [row for name in (SUITES if scope == "all" else [scope]) for row in SUITES[name](seed, inject_fault)]
