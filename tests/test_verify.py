import numpy as np
import pytest

import osora.verify
from osora import METHODS, AdapterMethod, build_adapter, forward, jacobi_svd, merge, random_matrix
from osora.verify import SUITES, check_init_identity, check_merge, check_svd, rel_inf, run_scope


@pytest.mark.parametrize("scale", [1e-160, 1e-170, 1e-300])
def test_check_svd_of_tiny_matrices(scale):
    # Squared unscaled, the residual's squares underflow at 1e-160 (error 0.0)
    # and the weight's at 1e-170 (ZeroDivisionError).
    w = random_matrix(12, 8, 3, "gaussian") * scale
    recon, ortho = check_svd([w])
    u, s, v = jacobi_svd(w)

    def norm(a):  # the plain norm of a over its largest entry, scaled back
        top = np.abs(a).max()
        return top * float(np.sqrt(((a / top) ** 2).sum()))

    want = norm((u * s) @ v.T - w) / norm(w)
    assert 0.0 < recon.max_err and recon.passed and ortho.passed
    assert abs(recon.max_err - want) <= 1e-12 * want


def test_check_svd_of_the_zero_matrix():
    # ||w|| = 0 leaves no relative error: the absolute residual norm stands in,
    # and the exact reconstruction of zeros reads 0.0.
    recon, ortho = check_svd([np.zeros((4, 3))])
    assert recon.max_err == 0.0 and recon.passed and ortho.passed


def test_svd_budget_of_each_suite(svd_calls, monkeypatch):
    # (direct jacobi_svd calls in verify, svd_truncated calls by builds and loads)
    # at seed 0. The counts do not depend on the BLAS build.
    direct = []
    real = osora.verify.jacobi_svd

    def counted(w):
        direct.append(np.shape(w))
        return real(w)

    monkeypatch.setattr(osora.verify, "jacobi_svd", counted)
    budget = {}
    for name in SUITES:
        direct.clear()
        svd_calls.clear()
        assert all(row.passed for row in run_scope(name, seed=0))
        budget[name] = (len(direct), len(svd_calls))
    assert budget == {"svd": (8, 0), "grad": (0, 4), "merge": (0, 4), "persist": (0, 8)}


@pytest.mark.parametrize("tag", METHODS)
def test_per_probe_errors_survive_batching(tag):
    # |w0 @ x| spans 1e-6 to 1e6 over the probes, and column 0 of the reference
    # is off by 1e-6, which only the probes with x[0] != 0 see. Taken over the
    # whole case, that error would be divided by the largest |w0 @ x| instead.
    w0 = random_matrix(10, 8, 5, "gaussian")
    state = build_adapter(w0, AdapterMethod(tag=tag, rank=3), seed=6)
    scales = np.array([1e-6, 1e-3, 1.0, 1e3, 1e6])
    probes = np.random.default_rng(7).standard_normal((5, 8)) * scales[:, None]
    probes[3:, 0] = 0.0
    off = np.zeros_like(w0)
    off[:, 0] = 1e-6

    (row,) = check_init_identity([(w0 + off, state, probes)])
    want = max(rel_inf(forward(state, x), (w0 + off) @ x) for x in probes)
    assert abs(row.max_err - want) <= 1e-9 * want
    assert row.max_err > 1e3 * rel_inf(forward(state, probes.T), (w0 + off) @ probes.T)

    merged = merge(state) + off
    (row,) = check_merge([(merged, state, probes)])
    want = max(rel_inf(merged @ x, forward(state, x)) for x in probes)
    assert abs(row.max_err - want) <= 1e-9 * want
    assert not row.passed
