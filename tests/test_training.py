import tracemalloc

import numpy as np
import pytest

from osora import (
    METHODS,
    AdapterMethod,
    DimensionMismatch,
    NonFiniteLoss,
    RankOutOfRange,
    ToyTask,
    TrainConfig,
    build_adapter,
    gradient,
    make_task,
    svd_truncated,
    train,
    trainable_vector,
)


def als_floor(task, rank, rounds=300):
    """Brute-force least squares over the osora-representable set at a rank.

    Alternates exact solves: given o, the singular weights s are a linear
    least-squares problem; given s, each row scale o_i has a closed form.
    Returns the best probe-set loss found, the floor a rank-r adapter can hit.
    """
    f = svd_truncated(task.w0, rank)
    u, v = f.u_r, f.v_r
    x_probes, y = task.probes, task.targets
    n = x_probes.shape[1]
    base = f.residual @ x_probes
    target = y - base
    c = v.T @ x_probes  # r x n
    o = np.ones(task.w0.shape[0])
    s = f.s_r.copy()
    for _ in range(rounds):
        columns = [np.outer(o * u[:, j], c[j, :]).ravel() for j in range(rank)]
        s, *_ = np.linalg.lstsq(np.stack(columns, axis=1), target.ravel(), rcond=None)
        rows = u @ (s[:, None] * c)  # d x n, the update before row scaling
        num = (target * rows).sum(axis=1)
        den = (rows * rows).sum(axis=1)
        o = np.where(den > 0, num / np.where(den > 0, den, 1.0), o)
    pred = base + o[:, None] * (u @ (s[:, None] * c))
    return 0.5 / n * float(((pred - y) ** 2).sum())


class TestMakeTask:
    def test_same_seed_same_task(self):
        a = make_task(10, 8, 2, seed=3)
        b = make_task(10, 8, 2, seed=3)
        assert a.w0.tobytes() == b.w0.tobytes()
        assert a.w_target.tobytes() == b.w_target.tobytes()
        assert a.probes.tobytes() == b.probes.tobytes()

    def test_targets_consistent_with_teacher(self):
        task = make_task(9, 7, 2, seed=4)
        assert np.array_equal(task.targets, task.w_target @ task.probes)
        assert task.probes.shape[1] >= 9

    def test_gap_representable_at_matching_rank(self):
        task = make_task(12, 10, 3, seed=1)
        assert als_floor(task, 3) <= 1e-12

    def test_gap_not_representable_below_matching_rank(self):
        task = make_task(12, 10, 3, seed=1)
        assert als_floor(task, 2) > 1e-3
        assert als_floor(task, 1) > 1e-3

    def test_rank_gap_out_of_range(self):
        with pytest.raises(RankOutOfRange):
            make_task(6, 4, 5, seed=0)

    def test_probe_count_floor(self):
        with pytest.raises(DimensionMismatch):
            make_task(8, 4, 2, seed=0, n=6)


class TestTrain:
    def test_zero_learning_rate_keeps_loss_constant(self):
        task = make_task(8, 8, 2, seed=5)
        state = build_adapter(task.w0, AdapterMethod(tag="osora", rank=2), seed=5)
        run = train(state, task, TrainConfig(steps=20, lr=0.0, optimizer="sgd"))
        assert run.loss_trace.size == 21
        assert (run.loss_trace == run.loss_trace[0]).all()

    def test_representable_task_converges(self):
        task = make_task(32, 32, 4, seed=6, n=64)
        state = build_adapter(task.w0, AdapterMethod(tag="osora", rank=4), seed=6)
        run = train(state, task, TrainConfig(steps=500, lr=1e-2, optimizer="adam"))
        assert run.loss_trace[-1] <= 1e-2 * run.loss_trace[0]

    def test_ablation_ordering_on_shared_task(self):
        task = make_task(32, 32, 4, seed=7, n=64)
        cfg = TrainConfig(steps=300, lr=1e-2, optimizer="adam")
        finals = {}
        for tset in ("both", "only_s", "only_o"):
            method = AdapterMethod(tag="osora", rank=4, trainable_set=tset)
            finals[tset] = train(build_adapter(task.w0, method, 7), task, cfg).loss_trace[-1]
        assert finals["both"] <= finals["only_s"]
        assert finals["both"] <= finals["only_o"]

    def test_deterministic_traces(self):
        task = make_task(10, 10, 2, seed=8)
        cfg = TrainConfig(steps=50, lr=5e-3, optimizer="adam")
        runs = [
            train(build_adapter(task.w0, AdapterMethod(tag="osora", rank=2), 8), task, cfg)
            for _ in range(2)
        ]
        assert runs[0].loss_trace.tobytes() == runs[1].loss_trace.tobytes()

    def test_sgd_monotone_at_small_lr(self):
        task = make_task(32, 32, 4, seed=9, n=64)
        state = build_adapter(task.w0, AdapterMethod(tag="osora", rank=4), seed=9)
        run = train(state, task, TrainConfig(steps=200, lr=1e-3, optimizer="sgd"))
        assert (np.diff(run.loss_trace) <= 1e-12).all()

    def test_nonfinite_loss_aborts(self):
        task = make_task(8, 8, 2, seed=10)
        state = build_adapter(task.w0, AdapterMethod(tag="osora", rank=2), seed=10)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss):
            train(state, task, TrainConfig(steps=400, lr=1e6, optimizer="sgd"))

    def test_input_state_left_untouched(self):
        task = make_task(8, 8, 2, seed=11)
        state = build_adapter(task.w0, AdapterMethod(tag="osora", rank=2), seed=11)
        before = {n: a.tobytes() for n, a in state.trainable.items()}
        train(state, task, TrainConfig(steps=30, lr=1e-2, optimizer="adam"))
        assert {n: a.tobytes() for n, a in state.trainable.items()} == before

    def test_shape_mismatch(self):
        task = make_task(8, 8, 2, seed=12)
        state = build_adapter(np.eye(6), AdapterMethod(tag="osora", rank=2), seed=12)
        with pytest.raises(DimensionMismatch):
            train(state, task, TrainConfig(steps=1, lr=1e-3, optimizer="sgd"))

    def test_bad_optimizer_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(steps=1, lr=0.1, optimizer="momentum")


TRAINED_METHODS = [AdapterMethod(tag=tag, rank=2) for tag in METHODS] + [
    AdapterMethod(tag="osora", rank=2, trainable_set=tset) for tset in ("only_s", "only_o")
]


@pytest.mark.parametrize("method", TRAINED_METHODS, ids=lambda m: f"{m.tag}-{m.trainable_set}")
def test_sgd_step_is_the_public_gradient(method):
    # train runs the same step body as gradient, so the tests of gradient
    # check what train runs: one SGD step at lr = 1 is theta0 - gradient.
    task = make_task(10, 8, 2, seed=13)
    state = build_adapter(task.w0, method, seed=13)
    expected = trainable_vector(state) - gradient(state, task.probes, task.targets).flat()
    run = train(state, task, TrainConfig(steps=1, lr=1.0, optimizer="sgd"))
    assert trainable_vector(run.final_state).tobytes() == expected.tobytes()


@pytest.mark.parametrize("tag", METHODS)
def test_train_step_forms_no_dense_weight(tag):
    # A step works on r x n products of the probes: at d = k = 256 and n = 8
    # one d x k float64 array (512 KiB) outweighs all of them. dora forms its
    # effective weight once per step and nothing else of that size.
    d = k = 256
    rng = np.random.default_rng(14)
    q, _ = np.linalg.qr(rng.standard_normal((d, k)))
    w0 = q * np.linspace(2.0, 1.0, k)  # orthogonal columns, so the SVD ends after one sweep
    probes = rng.standard_normal((k, 8))
    task = ToyTask(w0=w0, w_target=1.1 * w0, probes=probes, targets=1.1 * w0 @ probes, seed=14, r_gap=2)
    state = build_adapter(task.w0, AdapterMethod(tag=tag, rank=2), seed=14)
    config = TrainConfig(steps=5, lr=1e-2, optimizer="adam")
    train(state, task, config)  # warm-up
    tracemalloc.start()
    try:
        train(state, task, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (2 if tag == "dora" else 1) * d * k * 8
