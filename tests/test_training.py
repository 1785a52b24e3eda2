import dataclasses
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
    finite_diff,
    gradient,
    make_task,
    random_matrix,
    save,
    svd_truncated,
    train,
    trainable_vector,
)
from conftest import truncation_residual
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
    base = truncation_residual(task.w0, f) @ x_probes
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

    @pytest.mark.parametrize("d,k", [(0, 4), (4, 0), (-1, 4)])
    def test_empty_dimension_is_a_dimension_mismatch(self, d, k):
        with pytest.raises(DimensionMismatch, match="must be >= 1"):
            make_task(d, k, 2, seed=0)

    def test_probe_count_floor(self):
        with pytest.raises(DimensionMismatch):
            make_task(8, 4, 2, seed=0, n=6)

    @pytest.mark.parametrize("name", ["w0", "w_target", "probes", "targets"])
    def test_arrays_are_read_only(self, name):
        task = make_task(8, 6, 2, seed=5)
        with pytest.raises(ValueError):
            getattr(task, name)[0, 0] = 0.0

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
        with pytest.raises(NonFiniteLoss):
            train(state, task, TrainConfig(steps=400, lr=1e6, optimizer="sgd"))

    @pytest.mark.parametrize("steps", [0, 3])
    def test_targets_whose_squares_overflow_abort(self, steps, capsys):
        # The planes' tail ||Y - (Y Q) Q^T||^2 overflows before any step; with
        # steps=0 only the check after the loop sees the loss.
        w = random_matrix(9, 7, 0, "gaussian")
        task = ToyTask(w0=w, w_target=w, probes=np.ones((7, 4)), targets=np.full((9, 4), 1e200), seed=0, r_gap=2)
        state = build_adapter(w, AdapterMethod(tag="osora", rank=2), seed=0)
        with pytest.raises(NonFiniteLoss, match="at step 0"):
            train(state, task, TrainConfig(steps=steps, lr=1e-2))
        assert capsys.readouterr() == ("", "")

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

    @pytest.mark.parametrize("shape", [(6, 8), (10, 6)], ids=["transposed", "rows_differ"])
    def test_shape_mismatch_with_a_rectangular_task(self, shape):
        # The probe check in the train step is the one that refuses these.
        task = make_task(8, 6, 2, seed=13)
        state = build_adapter(random_matrix(*shape, 13, "gaussian"), AdapterMethod(tag="osora", rank=2), seed=13)
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


@pytest.mark.parametrize(
    "shape, own_w0",
    [((10, 8, 20), False), ((8, 8, 8), False), ((6, 10, 8), False), ((10, 8, 20), True)],
    ids=["n_gt_k", "n_eq_k", "n_lt_k", "n_gt_k-own_w0"],
)
@pytest.mark.parametrize("method", TRAINED_METHODS, ids=lambda m: f"{m.tag}-{m.trainable_set}")
def test_compressed_step_matches_the_raw_reference(method, shape, own_w0):
    # train steps over the QR-compressed probes (R^T, Y Q and the tail);
    # loss_mse and gradient over the raw probes are the reference. They agree
    # to roundoff: at most 1.5e-15 of the initial loss and 1.2e-15 of the
    # largest gradient entry over these cases, bounded here at 1e-13. The
    # noise puts the targets outside the probes' row space, so at n > k the
    # tail is 7 % of the initial loss. An adapter over another weight of the
    # task's shape (own_w0) takes its own w0 @ R^T instead of the task's.
    d, k, n = shape
    task = make_task(d, k, 2, seed=13, n=n)
    task = dataclasses.replace(task, targets=task.targets + 0.1 * np.random.default_rng(13).standard_normal((d, n)))
    state = build_adapter(random_matrix(d, k, 14, "gaussian") if own_w0 else task.w0, method, seed=13)
    run = train(state, task, TrainConfig(steps=25, lr=1e-2))
    trace = run.loss_trace
    assert abs(trace[0] - loss_mse(state, task.probes, task.targets)) <= 1e-13 * trace[0]
    assert abs(trace[-1] - loss_mse(run.final_state, task.probes, task.targets)) <= 1e-13 * trace[0]
    g = gradient(state, task.probes, task.targets).flat()
    step = train(state, task, TrainConfig(steps=1, lr=1.0, optimizer="sgd"))
    assert np.abs(trainable_vector(step.final_state) - (trainable_vector(state) - g)).max() <= 1e-13 * np.abs(g).max()


def test_one_qr_per_task(monkeypatch):
    # The first train over a task compresses its probes; the other six reuse
    # that, and a task made from it by dataclasses.replace compresses its own.
    task = make_task(10, 8, 2, seed=19)
    states = [build_adapter(task.w0, AdapterMethod(tag=tag, rank=2), seed=19) for tag in METHODS]
    calls, real = [], np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kw: calls.append(np.shape(a)) or real(a, *args, **kw))
    config = TrainConfig(steps=2, lr=1e-2)
    for state in states:
        train(state, task, config)
    assert calls == [(20, 8)]
    assert not any(arr.flags.writeable for arr in task.planes[:2])  # R^T and Y Q, shared by every call
    probes = 2.0 * task.probes
    task = dataclasses.replace(task, probes=probes, targets=task.w_target @ probes)
    run = train(states[0], task, config)
    train(states[1], task, config)
    assert calls == [(20, 8), (20, 8)]
    assert abs(run.loss_trace[0] - loss_mse(states[0], task.probes, task.targets)) <= 1e-13 * run.loss_trace[0]


def test_one_base_product_per_task(monkeypatch):
    # w0 @ R^T is the one d x k x m product of a train call. The first train
    # over a task makes it and the task keeps it: every adapter whose w0 holds
    # the task's w0 values reads it, one built over a copy of w0 included, and
    # an adapter over another weight takes its own. Both places that form it,
    # ToyTask.base and _Method.fixed, call np.matmul.
    task = make_task(10, 8, 2, seed=19)
    states = [build_adapter(task.w0, AdapterMethod(tag=tag, rank=2), seed=19) for tag in METHODS]
    calls, real = [], np.matmul
    product = ((10, 8), (8, 8))  # d x k times k x m, m = min(n, k)

    def counted(a, b, *args, **kw):
        if (np.shape(a), np.shape(b)) == product:
            calls.append(product)
        return real(a, b, *args, **kw)

    monkeypatch.setattr(np, "matmul", counted)
    config = TrainConfig(steps=2, lr=1e-2)
    for state in states:
        train(state, task, config)
    assert len(calls) == 1 and not task.base.flags.writeable
    train(states[0], task, config)
    train(build_adapter(task.w0.copy(), AdapterMethod(tag="lora", rank=2), seed=19), task, config)
    assert len(calls) == 1
    train(build_adapter(random_matrix(10, 8, 3, "gaussian"), AdapterMethod(tag="lora", rank=2), seed=19), task, config)
    assert len(calls) == 2


def test_replaced_w0_takes_its_own_factors(svd_calls):
    # make_task runs one SVD and the task keeps its factors; a task with
    # another w0 decomposes that w0 at its first read of factors, once.
    task = make_task(8, 6, 2, seed=1)
    assert len(svd_calls) == 1 and task.factors is task.factors
    other = dataclasses.replace(task, w0=random_matrix(8, 6, 2, "gaussian"))
    assert len(svd_calls) == 1
    f = other.factors
    assert svd_calls == [(8, 6), (8, 6)] and other.factors is f
    for t in (task, other):
        assert t.factors.w0.tobytes() == t.w0.tobytes()
        assert np.abs(t.w0 @ t.factors.v_r - t.factors.u_r * t.factors.s_r).max() <= 1e-14 * np.abs(t.w0).max()


def test_hand_built_task_owns_read_only_copies():
    made = make_task(8, 6, 2, seed=21)
    given = {name: getattr(made, name).copy() for name in ("w0", "w_target", "probes", "targets")}
    task = ToyTask(**given, seed=21, r_gap=2)
    for name, arr in given.items():
        kept = getattr(task, name)
        assert not kept.flags.writeable and not np.shares_memory(kept, arr)
        assert np.array_equal(kept, arr)
    with pytest.raises(dataclasses.FrozenInstanceError):
        task.targets = given["targets"]


@pytest.mark.parametrize("written", ["targets", "probes", "probes_view"])
def test_a_write_between_trains_is_seen(written):
    # A task holds copies of the arrays it is given, so an in-place write to
    # the caller's arrays, a read-only view of a writable one included, never
    # reaches the task or its planes: the second run starts where the first
    # did, at loss_mse over the task's arrays (0.1453 where the targets are
    # zeroed; 6.780 had that write reached the task).
    made = make_task(16, 16, 2, seed=0)
    probes, targets = made.probes.copy(), made.targets.copy()
    changed = targets if written == "targets" else probes
    if written == "probes_view":
        probes = probes.view()
        probes.setflags(write=False)
    task = ToyTask(w0=made.w0, w_target=made.w_target, probes=probes, targets=targets, seed=0, r_gap=2)
    state = build_adapter(task.w0, AdapterMethod(tag="osora", rank=2), seed=0)
    config = TrainConfig(steps=2, lr=1e-2)
    first = train(state, task, config)
    changed[:] = 0.0
    run = train(state, task, config)
    want = loss_mse(state, task.probes, task.targets)
    assert run.loss_trace[0] == first.loss_trace[0]
    assert abs(run.loss_trace[0] - want) <= 1e-13 * want


@pytest.mark.parametrize(
    "probes, targets, error",
    [
        (np.ones(5), np.ones((6, 5)), DimensionMismatch),
        (np.ones((5, 4)), np.ones((6, 3)), DimensionMismatch),
        (np.ones((5, 4, 1)), np.ones((6, 4)), DimensionMismatch),
        ([["a"] * 4] * 5, np.ones((6, 4)), InvalidConfig),
        (np.ones((4, 4)), np.ones((6, 4)), DimensionMismatch),
    ],
    ids=["probes_1d", "column_counts_differ", "probes_3d", "text_probes", "probe_rows_differ_from_w0"],
)
def test_bad_hand_built_task_rejected(probes, targets, error):
    # Each ends in the OsoraError that gradient gives for the same probes, not in the QR's own errors.
    made = make_task(6, 5, 2, seed=20)
    state = build_adapter(made.w0, AdapterMethod(tag="osora", rank=2), seed=20)
    with pytest.raises(error):
        task = ToyTask(w0=made.w0, w_target=made.w_target, probes=probes, targets=targets, seed=20, r_gap=2)
        train(state, task, TrainConfig(steps=1, lr=1e-2))
    with pytest.raises(error):
        gradient(state, probes, targets)


@pytest.mark.parametrize("call", ["gradient", "loss_mse", "finite_diff", "train"])
def test_zero_probe_columns_rejected(call):
    task = make_task(6, 5, 2, seed=20)
    empty = ToyTask(
        w0=task.w0, w_target=task.w_target, probes=np.empty((5, 0)), targets=np.empty((6, 0)), seed=20, r_gap=2
    )
    state = build_adapter(task.w0, AdapterMethod(tag="osora", rank=2), seed=20)
    with pytest.raises(DimensionMismatch):
        if call == "train":
            train(state, empty, TrainConfig(steps=1, lr=1e-2))
        else:
            fn = {"gradient": gradient, "loss_mse": loss_mse, "finite_diff": finite_diff}[call]
            fn(state, empty.probes, empty.targets)


@pytest.mark.parametrize("tag", METHODS)
def test_train_step_forms_no_dense_weight(tag):
    # A step works on r x n products of the probes: at d = k = 256 and n = 8
    # one d x k float64 array (512 KiB) outweighs all of them. dora forms its
    # effective weight once per step and nothing else of that size: it takes
    # its row norms on that array, rescaled in place, also where the weight's
    # squares underflow (the same weight times 2^-600).
    d = k = 256
    rng = np.random.default_rng(14)
    q, _ = np.linalg.qr(rng.standard_normal((d, k)))
    # A linspace spectrum decays too slowly for the top-r SVD to certify its
    # factors: it stops at its iteration cap, which the build and this bound do not depend on.
    w = q * np.linspace(2.0, 1.0, k)
    probes = rng.standard_normal((k, 8))
    for w0 in (w, np.ldexp(w, -600)):
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
    # that _stepper allocates once per call, and its gradient into the flat
    # vector it is given; what it still makes are
    # r x n products of the probes (and dora's d x k effective weight), each a
    # small fraction of one d x n array when n >> d.
    d = k = 32
    n = 4096
    task = make_task(d, k, 2, seed=15, n=n)
    state = build_adapter(task.w0, method, seed=15)
    step = _stepper(state, task.probes, task.targets)
    g = trainable_vector(state)
    step(state, g)  # warm-up
    tracemalloc.start()
    try:
        step(state, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * d * n * 8


@pytest.mark.parametrize("method", TRAINED_METHODS, ids=lambda m: f"{m.tag}-{m.trainable_set}")
def test_train_call_allocates_one_workspace_plane(method):
    # The first train over a task compresses its probes, which takes about two
    # d x n temporaries at d = k, and makes the task's w0 @ R^T, which the
    # task keeps. Every call then holds one workspace plane of d x min(n, k),
    # for every method: a magnitude method rescales its prediction in place.
    # Measured: at most 2.03 d x n planes on the first call and 0.036 on the second.
    d = k = 32
    n = 4096
    task = make_task(d, k, 2, seed=16, n=n)
    state = build_adapter(task.w0, method, seed=16)
    config = TrainConfig(steps=2, lr=1e-2)
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            train(state, task, config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 2.5 * d * n * 8
    assert peaks[1] < 0.1 * d * n * 8


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
    "lora": "9fe532998d312b4d45fdc771ffc9b76bca5966adf98feb7274288b675f35b73d",
    "vera": "c81432c34b9add4e4c0a32a153e0ea1b4ecd092fc9d3bef50d8d4d50317109bc",
    "pissa": "633cba1ac02d008521087dca99d816222e50db44830a21759960508c0b5db89b",
    "osora": "aec34c43384909675110005b0fd8fc5d5e6efa995fcac0bb5d9f8aa1e70592a8",
    "osora_k": "afd9193fa21ec82a10ebee8e00a9e88719ed7f2195743b6ce05311d38e83aee2",
    "dora": "7afbbe3d382bc08815f7cca77eba05cd1fc337abe9eaa9eeab200086c6219983",
    "osora_dora": "4e2246810962f7d6c2116826a44a8d8deac050623b98d92268eb69c91e7e5bd5",
}


@pytest.mark.pinned
@pytest.mark.parametrize("tag", METHODS)
def test_adam_run_bytes_are_pinned(tag):
    task = make_task(64, 64, 4, seed=21, n=128)
    run = train(build_adapter(task.w0, AdapterMethod(tag=tag, rank=4), 21), task, TrainConfig(steps=25, lr=1e-2))
    digest = hashlib.sha256(run.loss_trace.tobytes() + trainable_vector(run.final_state).tobytes()).hexdigest()
    assert digest == ADAM_RUN_DIGESTS[tag]
