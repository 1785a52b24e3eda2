import numpy as np
import pytest

import osora.adapters
from osora.adapters import METHODS, OSORA_FAMILY
from osora.verify import perturbed_state, rel_inf  # noqa: F401  (test modules import them from here)


def pytest_report_header(config):
    # The pinned-bytes tests hold only on the numpy, BLAS and LAPACK build they
    # were recorded on; the LAPACK-path factors also go through LAPACK's gesdd.
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    blas, lapack = deps["blas"], deps["lapack"]
    return (
        f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}, "
        f"LAPACK {lapack.get('name')} {lapack.get('version')}"
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def svd_calls(monkeypatch):
    """The shapes of the SVDs that builds, loads and tasks run, in call order."""
    calls = []
    real = osora.adapters.svd_truncated

    def counted(w, r):
        calls.append(np.shape(w))
        return real(w, r)

    monkeypatch.setattr(osora.adapters, "svd_truncated", counted)
    return calls


# One tall and one wide (path, d, k, r) row per SVD path of linalg.svd_path.
# Every test that runs each path takes its shapes from here, so a new kernel or
# a moved cut-over edits these rows alone; test_linalg's
# test_svd_path_cases_cover_every_path fails by name when they fall behind.
SVD_PATH_CASES = [
    pytest.param("jacobi", 40, 28, 6, id="jacobi"),
    pytest.param("jacobi", 28, 40, 6, id="jacobi_wide"),
    pytest.param("lapack", 160, 128, 6, id="lapack"),
    pytest.param("lapack", 128, 160, 6, id="lapack_wide"),
]


def truncation_residual(w, f):
    """w - u_r diag(s_r) v_r^T of svd_truncated's factors f of w, by the expression svd_truncated once returned it."""
    return w - (f.u_r * f.s_r) @ f.v_r.T


# Every method, at both o_init values where it has them.
LIVE_BUILDS = [(tag, "ones") for tag in METHODS] + [(tag, "gaussian") for tag in OSORA_FAMILY]


def assert_frozen_rebuilt_over_shared(got, live):
    """got was built while live lived: its own frozen dict, with equal bytes, that holds the shared tensors.

    Those are the registry's w0 copy, u_r, v_r and s0 of every SVD build,
    whatever its o_init; the w0 copy of lora, vera and dora, vera's draws and
    the initial values o0, a0 and b0 are its own.
    """
    assert got.frozen is not live.frozen and got.frozen.factors is live.frozen.factors
    shared = {"w0", "u_r", "v_r", "s0"} if live.frozen.factors is not None else set()
    assert {name for name, arr in got.frozen.items() if arr is live.frozen[name]} == shared & live.frozen.keys()
    assert {name: arr.tobytes() for name, arr in got.frozen.items()} == {
        name: arr.tobytes() for name, arr in live.frozen.items()
    }
