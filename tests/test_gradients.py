import numpy as np
import pytest

from conftest import perturbed_state
from osora import (
    METHODS,
    AdapterMethod,
    DimensionMismatch,
    build_adapter,
    effective_weight,
    finite_diff,
    forward,
    gradient,
    load_trainable,
    loss_mse,
    random_matrix,
    trainable_vector,
)


def fd_gap(state, x, y, h=1e-6):
    analytic = gradient(state, x, y).flat()
    numeric = finite_diff(state, x, y, h=h).flat()
    return np.abs(analytic - numeric).max() / (1.0 + np.abs(numeric).max())


class TestLoss:
    def test_zero_when_targets_match(self, rng):
        state, _ = perturbed_state("osora", 8, 6, 2, 1)
        x = rng.standard_normal((6, 10))
        assert loss_mse(state, x, forward(state, x)) == 0.0

    def test_single_probe_scalar_case(self):
        # prediction 3, target 1 -> (3 - 1)^2 / 2 = 2
        state = build_adapter(np.array([[3.0]]), AdapterMethod(tag="lora", rank=1), seed=0)
        assert loss_mse(state, np.array([[1.0]]), np.array([[1.0]])) == 2.0

    def test_matches_bruteforce_loop(self, rng):
        state, _ = perturbed_state("vera", 7, 5, 2, 3)
        x = rng.standard_normal((5, 9))
        y = rng.standard_normal((7, 9))
        total = 0.0
        for j in range(9):
            diff = forward(state, x[:, j]) - y[:, j]
            for value in diff:
                total += value * value
        assert abs(loss_mse(state, x, y) - total / 18.0) <= 1e-12

    def test_dimension_mismatch(self):
        state, _ = perturbed_state("lora", 6, 4, 2, 4)
        with pytest.raises(DimensionMismatch):
            loss_mse(state, np.zeros((4, 3)), np.zeros((6, 2)))


class TestGradOsora:
    @pytest.mark.parametrize("tag", ["lora", "vera", "pissa", "osora", "osora_k"])
    def test_zero_gradient_at_zero_residual(self, tag, rng):
        # the step builds its prediction with forward's own expression, so
        # targets from forward leave a residual of exact zeros
        state, _ = perturbed_state(tag, 8, 6, 2, 5)
        x = rng.standard_normal((6, 10))
        lg = gradient(state, x, forward(state, x))
        assert np.abs(lg.flat()).max() == 0.0
        assert lg.loss == 0.0

    def test_hand_worked_example(self):
        # w0 = diag(2,1), r = 1, single probe x = e1, target y = e1.
        # pred = [2, 0], so G = [[1, 0], [0, 0]]: dL/ds = [1], dL/do = [2, 0].
        state = build_adapter(np.diag([2.0, 1.0]), AdapterMethod(tag="osora", rank=1), seed=0)
        x = np.array([[1.0], [0.0]])
        y = np.array([[1.0], [0.0]])
        lg = gradient(state, x, y)
        assert np.allclose(lg.slices["s_r"], [1.0], atol=1e-14)
        assert np.allclose(lg.slices["o"], [2.0, 0.0], atol=1e-14)
        fd = finite_diff(state, x, y)
        assert np.abs(lg.flat() - fd.flat()).max() <= 1e-8

    def test_seeded_instance_against_fd(self, rng):
        state, _ = perturbed_state("osora", 12, 10, 3, 6, scale=0.3)
        x = rng.standard_normal((10, 20))
        y = rng.standard_normal((12, 20))
        assert fd_gap(state, x, y) <= 1e-6

    def test_paper_printed_s_formula_agrees_with_fd(self, rng):
        state, _ = perturbed_state("osora", 9, 7, 3, 7, scale=0.4)
        x = rng.standard_normal((7, 14))
        y = rng.standard_normal((9, 14))
        pred = forward(state, x)
        g = (pred - y) @ x.T / x.shape[1]
        u, v = state.frozen["u_r"], state.frozen["v_r"]
        o = state.trainable["o"]
        printed_s = np.diag(u.T @ np.diag(o) @ g @ v)
        fd = finite_diff(state, x, y).slices["s_r"]
        assert np.abs(printed_s - fd).max() / (1.0 + np.abs(fd).max()) <= 1e-6

    def test_corrected_o_formula_agrees_with_fd(self, rng):
        # diag(G V diag(s) U^T): the factor order that typechecks for d != k
        state, _ = perturbed_state("osora", 9, 7, 3, 8, scale=0.4)
        x = rng.standard_normal((7, 14))
        y = rng.standard_normal((9, 14))
        pred = forward(state, x)
        g = (pred - y) @ x.T / x.shape[1]
        u, v = state.frozen["u_r"], state.frozen["v_r"]
        s = state.trainable["s_r"]
        corrected_o = np.diag(g @ v @ np.diag(s) @ u.T)
        fd = finite_diff(state, x, y).slices["o"]
        assert np.abs(corrected_o - fd).max() / (1.0 + np.abs(fd).max()) <= 1e-6

    def test_ablation_gradient_is_a_slice_of_the_full_one(self, rng):
        x = rng.standard_normal((6, 12))
        y = rng.standard_normal((8, 12))
        full, _ = perturbed_state("osora", 8, 6, 2, 9, scale=0.0)
        only_s, _ = perturbed_state("osora", 8, 6, 2, 9, scale=0.0, trainable_set="only_s")
        only_o, _ = perturbed_state("osora", 8, 6, 2, 9, scale=0.0, trainable_set="only_o")
        lg = gradient(full, x, y)
        assert np.array_equal(gradient(only_s, x, y).flat(), lg.slices["s_r"])
        assert np.array_equal(gradient(only_o, x, y).flat(), lg.slices["o"])


class TestGradGeneric:
    def test_lora_zero_b_means_zero_a_gradient(self, rng):
        w0 = random_matrix(7, 5, 11, "gaussian")
        state = build_adapter(w0, AdapterMethod(tag="lora", rank=2), seed=11)
        x = rng.standard_normal((5, 8))
        y = rng.standard_normal((7, 8))
        lg = gradient(state, x, y)
        assert np.abs(lg.slices["a"]).max() == 0.0
        assert np.abs(lg.slices["b"]).max() > 0.0

    def test_vera_b_gradient_formula_at_init(self, rng):
        # at init b = 0 zeroes the d_vec slice, so the informative check is
        # the b slice against its closed form diag(G (B diag(d) A)^T)
        w0 = random_matrix(8, 6, 12, "gaussian")
        state = build_adapter(w0, AdapterMethod(tag="vera", rank=3), seed=12)
        x = rng.standard_normal((6, 10))
        y = rng.standard_normal((8, 10))
        pred = forward(state, x)
        g = (pred - y) @ x.T / x.shape[1]
        core = state.frozen["b_base"] @ (state.trainable["d_vec"][:, None] * state.frozen["a_base"])
        expected_b = np.diag(g @ core.T)
        fd = finite_diff(state, x, y)
        assert np.abs(expected_b).max() > 1e-3
        assert np.abs(expected_b - fd.slices["b_vec"]).max() / (1.0 + np.abs(fd.flat()).max()) <= 1e-6

    def test_seeded_lora_against_fd(self, rng):
        state, _ = perturbed_state("lora", 8, 8, 2, 13, scale=0.3)
        x = rng.standard_normal((8, 12))
        y = rng.standard_normal((8, 12))
        assert fd_gap(state, x, y) <= 1e-6

    @pytest.mark.parametrize("tag", ["pissa", "dora", "osora_dora"])
    def test_remaining_methods_against_fd(self, tag, rng):
        state, _ = perturbed_state(tag, 9, 7, 2, 14, scale=0.25)
        x = rng.standard_normal((7, 12))
        y = rng.standard_normal((9, 12))
        assert fd_gap(state, x, y) <= 1e-6


class TestZeroRow:
    """A base weight with an exactly zero row: its row norm is 0 and the rescale must not divide by it."""

    @staticmethod
    def zero_row_state(tag, nudge):
        w0 = random_matrix(8, 6, (19, 100), "gaussian")
        w0[2] = 0.0
        state = build_adapter(w0, AdapterMethod(tag=tag, rank=2), seed=19)
        if nudge:
            theta = trainable_vector(state)
            load_trainable(state, theta + 0.3 * np.random.default_rng((19, 101)).standard_normal(theta.size))
        return state

    @pytest.mark.parametrize("tag,nudge", [("dora", False), ("osora_dora", False), ("osora_dora", True)])
    def test_gradient_is_finite_and_exact_on_the_zero_row(self, tag, nudge, rng):
        state = self.zero_row_state(tag, nudge)
        assert np.array_equal(effective_weight(state)[2], np.zeros(6))
        x = rng.standard_normal((6, 12))
        y = rng.standard_normal((8, 12))
        with np.errstate(all="raise"):
            lg = gradient(state, x, y)
        assert fd_gap(state, x, y) <= 1e-6
        assert lg.slices["m"][2] == 0.0
        if tag == "osora_dora":
            assert lg.slices["o"][2] == 0.0


class TestFiniteDiff:
    def test_near_zero_at_zero_loss(self, rng):
        state, _ = perturbed_state("osora", 7, 6, 2, 15)
        x = rng.standard_normal((6, 10))
        fd = finite_diff(state, x, forward(state, x))
        assert np.abs(fd.flat()).max() <= 1e-9

    def test_rejects_nonpositive_step(self, rng):
        state, _ = perturbed_state("osora", 5, 4, 1, 16)
        with pytest.raises(ValueError):
            finite_diff(state, np.zeros((4, 1)), np.zeros((5, 1)), h=0.0)

    def test_second_order_accuracy_ratio(self, rng):
        # the row-norm rescale makes the loss genuinely non-quadratic per
        # coordinate, so the central-difference error scales as h^2
        state, _ = perturbed_state("dora", 8, 6, 3, 17, scale=0.3)
        x = rng.standard_normal((6, 12))
        y = forward(state, x) + 0.5 * rng.standard_normal((8, 12))
        exact = gradient(state, x, y).flat()
        err4 = np.abs(finite_diff(state, x, y, h=1e-4).flat() - exact).max()
        err5 = np.abs(finite_diff(state, x, y, h=1e-5).flat() - exact).max()
        assert 100.0 / 3.0 <= err4 / err5 <= 100.0 * 3.0

    def test_bilinear_methods_have_coordinatewise_quadratic_loss(self, rng):
        # per-coordinate the osora loss is a parabola, so central differences
        # are exact up to roundoff at both step sizes
        state, _ = perturbed_state("osora", 8, 6, 3, 18, scale=0.3)
        x = rng.standard_normal((6, 12))
        y = rng.standard_normal((8, 12))
        exact = gradient(state, x, y).flat()
        for h in (1e-4, 1e-5):
            err = np.abs(finite_diff(state, x, y, h=h).flat() - exact).max()
            assert err <= 1e-9

    def test_agrees_with_analytic_on_twenty_seeded_instances(self):
        for seed in range(20):
            state, _ = perturbed_state("osora", 10, 8, 2, 50 + seed, scale=0.4)
            x = np.random.default_rng((seed, 1)).standard_normal((8, 12))
            y = np.random.default_rng((seed, 2)).standard_normal((10, 12))
            assert fd_gap(state, x, y) <= 1e-6


@pytest.mark.parametrize("tag", METHODS)
@pytest.mark.parametrize("d,k", [(6, 10), (16, 16)])
@pytest.mark.parametrize("r", [1, 4])
def test_gradcheck_matrix(tag, d, k, r, rng):
    state, _ = perturbed_state(tag, d, k, r, 70 + r, scale=0.3)
    x = rng.standard_normal((k, 2 * d))
    y = rng.standard_normal((d, 2 * d))
    assert fd_gap(state, x, y) <= 1e-6
