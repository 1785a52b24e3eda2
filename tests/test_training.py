import hashlib
import tracemalloc

import numpy as np
import pytest

from osora import (
    METHODS,
    AdapterMethod,
    DimensionMismatch,
    InvalidConfig,
    NonFiniteLoss,
    OsoraError,
    RankOutOfRange,
    ToyTask,
    TrainConfig,
    build_adapter,
    clone_state,
    gradient,
    make_task,
    save,
    svd_truncated,
    train,
    trainable_vector,
)
from osora.gradients import _stepper, loss_mse
from osora.verify import perturbed_state


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

    @pytest.mark.parametrize("args", [(8, 8, True, 0), (8, 8, 2, 0.5), (8, 8, 2, 2**64)], ids=["bool_rank", "float_seed", "seed_past_u64"])
    def test_non_integer_count_or_seed_rejected(self, args):
        with pytest.raises(InvalidConfig):
            make_task(*args)


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

    @pytest.mark.parametrize(
        "fields",
        [{"steps": 2.5, "lr": 0.1}, {"steps": 2, "lr": "0.1"}, {"steps": True, "lr": 1e-2}, {"steps": 2, "lr": True}],
        ids=["steps", "lr", "steps-bool", "lr-bool"],
    )
    def test_wrong_type_rejected(self, fields):
        with pytest.raises(InvalidConfig) as info:
            TrainConfig(**fields)
        assert isinstance(info.value, ValueError) and isinstance(info.value, OsoraError)


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


@pytest.mark.parametrize("method", TRAINED_METHODS, ids=lambda m: f"{m.tag}-{m.trainable_set}")
def test_train_step_allocates_no_probe_sized_array(method):
    # A step writes its prediction and residual into the d x n workspace
    # that _stepper allocates once per call; what it still makes are
    # r x n products of the probes (and dora's d x k effective weight), each a
    # small fraction of one d x n array when n >> d.
    d = k = 32
    n = 4096
    task = make_task(d, k, 2, seed=15, n=n)
    state = build_adapter(task.w0, method, seed=15)
    step = _stepper(state, task.probes, task.targets)
    step(state)  # warm-up
    tracemalloc.start()
    try:
        step(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * d * n * 8


@pytest.mark.parametrize("method", TRAINED_METHODS, ids=lambda m: f"{m.tag}-{m.trainable_set}")
def test_train_call_allocates_one_workspace_plane(method):
    # One whole train call holds fx["base"] (d x n) plus one d x n workspace
    # plane, for every method: a magnitude method rescales its prediction in place.
    d = k = 32
    n = 4096
    task = make_task(d, k, 2, seed=16, n=n)
    state = build_adapter(task.w0, method, seed=16)
    config = TrainConfig(steps=2, lr=1e-2)
    train(state, task, config)  # warm-up
    tracemalloc.start()
    try:
        train(state, task, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * d * n * 8


@pytest.mark.parametrize("method", TRAINED_METHODS, ids=lambda m: f"{m.tag}-{m.trainable_set}")
def test_runs_own_their_trainables(method, tmp_path):
    # train's working slots are views of its flat parameter vector: no run may
    # share that memory with another run or with the state it started from,
    # and a checkpoint of a run holds the same bytes as one of its clone.
    task = make_task(10, 8, 2, seed=18)
    state = build_adapter(task.w0, method, seed=18)
    config = TrainConfig(steps=3, lr=1e-2)
    runs = [train(state, task, config) for _ in range(2)]
    for a in runs[0].final_state.trainable.values():
        for other in [runs[1].final_state, state]:
            assert not any(np.shares_memory(a, b) for b in other.trainable.values())
    final = runs[0].final_state
    save(final, tmp_path / "run.ckpt")
    save(clone_state(final), tmp_path / "clone.ckpt")
    assert (tmp_path / "run.ckpt").read_bytes() == (tmp_path / "clone.ckpt").read_bytes()


@pytest.mark.parametrize("method", TRAINED_METHODS, ids=lambda m: f"{m.tag}-{m.trainable_set}")
def test_step_loss_matches_forward_loss(method):
    # The step takes its loss as one dot product over the residual plane;
    # loss_mse takes it from forward. Both must agree at any state.
    state, _ = perturbed_state(method.tag, 12, 10, 3, 17, scale=0.3, trainable_set=method.trainable_set)
    rng = np.random.default_rng(17)
    x, y = rng.standard_normal((10, 24)), rng.standard_normal((12, 24))
    expected = loss_mse(state, x, y)
    assert abs(gradient(state, x, y).loss - expected) <= 1e-12 * expected
    task = make_task(12, 10, 3, seed=17, n=24)
    run = train(build_adapter(task.w0, method, seed=17), task, TrainConfig(steps=5, lr=1e-2))
    final = loss_mse(run.final_state, task.probes, task.targets)
    assert abs(run.loss_trace[-1] - final) <= 1e-12 * final


# SHA-256 of loss_trace and the final trainable_vector of a 25-step Adam run
# per method. They hold only where they were recorded: numpy 2.4.6 with its
# bundled OpenBLAS 0.3.31, Python 3.11, x86-64. Another numpy or BLAS build may
# sum in another order and move them while the code is correct; re-record them
# there. test_deterministic_traces checks run-to-run equality anywhere.
ADAM_RUN_DIGESTS = {
    "lora": "ae1decf1461144ee2966e57ab6990d7872f40d9d5e8b8b42795b78c98ab02777",
    "vera": "b39b1ebbc3130eb568d267f16cce962a4de062081469844a7d4b7930c19b8449",
    "pissa": "2587074c20f1fbd94bc42d46e640d314f15ef0e3dc32330462ac8d956328eb89",
    "osora": "6a8f6a5034bb685694f2f6542016f93e21d7e37ee621880e2dbf5544742fcf18",
    "osora_k": "07c9ab398a48fea3e7703cfbefb7d98ba91e0cb9c57f80789be29f9340eb4e68",
    "dora": "ace41fd844165b86d463f46c9273ac6b2b8ab39b5e132ae1abe6d62fcac9125c",
    "osora_dora": "8cd5f1706075f1561bea83c661ce11715f342ff2654f793865401b8f3d7fc3db",
}


@pytest.mark.pinned
@pytest.mark.parametrize("tag", METHODS)
def test_adam_run_bytes_are_pinned(tag):
    task = make_task(64, 64, 4, seed=21, n=128)
    run = train(build_adapter(task.w0, AdapterMethod(tag=tag, rank=4), 21), task, TrainConfig(steps=25, lr=1e-2))
    digest = hashlib.sha256(run.loss_trace.tobytes() + trainable_vector(run.final_state).tobytes()).hexdigest()
    assert digest == ADAM_RUN_DIGESTS[tag]
