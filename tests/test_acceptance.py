"""Acceptance suite: every release gate in one module, one test per criterion.

Each test pins the tolerance it is held to and prints a PASS line on the way
out, so `pytest tests/test_acceptance.py -v -s` reads as a checklist. Run
times are asserted where a budget is part of the gate.
"""

import itertools
import time
from pathlib import Path

import numpy as np

from osora import (
    METHODS,
    AdapterMethod,
    TrainConfig,
    build_adapter,
    count_trainable,
    finite_diff,
    forward,
    get_preset,
    make_task,
    merge,
    random_matrix,
    report,
    scaling_sweep,
    train,
)
from osora.verify import (
    check_grad,
    check_init_identity,
    check_merge,
    check_persist,
    check_storage_ratio,
    check_svd,
    perturbed_state,
)

SWEEP_RANKS = [64, 128, 256, 512]


def test_criterion_1_exact_parameter_totals():
    start = time.perf_counter()
    preset = get_preset("mistral7b_v03")
    assert report(preset, "osora", 512).total == 196_608
    assert report(preset, "osora_k", 512).total == 294_912
    assert report(preset, "dora", 16).total == 6_979_584
    assert report(preset, "osora_dora", 512).total == 360_448
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 exact parameter totals ({elapsed:.3f}s): PASS")


def test_criterion_2_scaling_curve_shape():
    start = time.perf_counter()
    preset = get_preset("qwen2_7b")
    rows = scaling_sweep(preset, ["osora", "vera", "lora"], SWEEP_RANKS)
    totals = {m: [t for mm, _, t in rows if mm == m] for m in ("osora", "vera", "lora")}
    for method in ("osora", "vera"):
        slopes = {
            (b - a) // (rb - ra)
            for (a, b), (ra, rb) in zip(
                zip(totals[method], totals[method][1:]), zip(SWEEP_RANKS, SWEEP_RANKS[1:])
            )
        }
        assert len(slopes) == 1  # affine: every divided difference identical
    lora_slope = (totals["lora"][1] - totals["lora"][0]) // (SWEEP_RANKS[1] - SWEEP_RANKS[0])
    osora_slope = (totals["osora"][1] - totals["osora"][0]) // (SWEEP_RANKS[1] - SWEEP_RANKS[0])
    per_target_lora_slope = preset.layers * sum(d + k for d, k in preset.targets)
    assert lora_slope == per_target_lora_slope
    assert lora_slope > osora_slope
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 linear scaling, lora slope dominates ({elapsed:.3f}s): PASS")


def test_criterion_3_svd_quality_on_twenty_matrices():
    start = time.perf_counter()
    shapes = [(128, 96), (96, 128), (64, 64), (100, 40), (33, 7), (8, 8), (57, 96), (128, 5), (16, 48), (96, 90)]
    recon, ortho = check_svd(
        random_matrix(d, k, (seed, 60), "gaussian" if seed % 2 else "uniform_scaled")
        for seed, (d, k) in enumerate(shapes * 2)
    )
    assert recon.threshold == 1e-12 and recon.passed
    assert ortho.threshold == 1e-10 and ortho.passed
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 3 svd quality recon={recon.max_err:.2e} ortho={ortho.max_err:.2e} ({elapsed:.1f}s): PASS"
    )


def test_criterion_4_initialization_identity():
    rng = np.random.default_rng(64)
    cases = []
    for tag in METHODS:
        w0 = random_matrix(14, 11, (tag.encode()[0], 61), "gaussian")
        cases.append((w0, build_adapter(w0, AdapterMethod(tag=tag, rank=4), seed=62), rng.standard_normal((100, 11))))
    (row,) = check_init_identity(cases)
    assert row.threshold == 1e-12 and row.passed
    print(f"\nACCEPTANCE 4 init identity, all methods, 100 probes each (max {row.max_err:.2e}): PASS")


def test_criterion_5_merge_equivalence_after_training():
    rng = np.random.default_rng(65)
    cases = []
    for tag in METHODS:
        task = make_task(12, 9, 3, seed=66)
        state = build_adapter(task.w0, AdapterMethod(tag=tag, rank=3), seed=66)
        run = train(state, task, TrainConfig(steps=80, lr=5e-3, optimizer="adam"))
        cases.append((merge(run.final_state), run.final_state, rng.standard_normal((50, 9))))
    (row,) = check_merge(cases)
    assert row.threshold == 1e-10 and row.passed
    print(f"\nACCEPTANCE 5 merge equivalence post-training (max {row.max_err:.2e}): PASS")


def test_criterion_6_gradient_verification_matrix():
    dims = [(6, 6), (6, 10), (10, 6), (10, 16), (16, 10), (16, 16)]
    ranks = [1, 2, 4]
    rng = np.random.default_rng(67)
    cases = []
    for i, (tag, (d, k), r) in enumerate(itertools.product(METHODS, dims, ranks)):
        state, _ = perturbed_state(tag, d, k, r, 1000 + i, scale=0.3)
        cases.append((state, rng.standard_normal((k, d + k)), rng.standard_normal((d, d + k))))
    (row,) = check_grad(cases)
    worst = row.max_err
    # the printed s-trace formula and the o formula in the dimension-consistent
    # factor order, checked slice by slice against central differences
    for state, x, y in cases:
        if state.method.tag == "osora":
            numeric = finite_diff(state, x, y)
            u, v = state.frozen["u_r"], state.frozen["v_r"]
            s, o = state.trainable["s_r"], state.trainable["o"]
            g = (forward(state, x) - y) @ x.T / x.shape[1]
            printed_s = np.diag(u.T @ np.diag(o) @ g @ v)
            corrected_o = np.diag(g @ v @ np.diag(s) @ u.T)
            denom = 1.0 + float(np.abs(numeric.flat()).max())
            worst = max(
                worst,
                float(np.abs(printed_s - numeric.slices["s_r"]).max()) / denom,
                float(np.abs(corrected_o - numeric.slices["o"]).max()) / denom,
            )
    assert len(cases) >= 60
    assert row.threshold == 1e-6 and worst <= 1e-6
    print(f"\nACCEPTANCE 6 gradients vs central differences, {len(cases)} instances (max {worst:.2e}): PASS")


def test_criterion_7_ablation_and_init_orderings():
    start = time.perf_counter()
    cfg = TrainConfig(steps=500, lr=1e-2, optimizer="adam")
    variants = {
        "both": {},
        "only_s": {"trainable_set": "only_s"},
        "only_o": {"trainable_set": "only_o"},
        "gaussian": {"o_init": "gaussian"},
    }
    finals = {name: [] for name in variants}
    for seed in range(10):
        task = make_task(32, 32, 4, seed, n=64)
        for name, kwargs in variants.items():
            method = AdapterMethod(tag="osora", rank=4, **kwargs)
            run = train(build_adapter(task.w0, method, seed), task, cfg)
            finals[name].append(float(run.loss_trace[-1]))
    joint = np.array(finals["both"])
    for other in ("only_s", "only_o"):
        single = np.array(finals[other])
        assert joint.mean() <= single.mean()
        assert int((joint < single).sum()) >= 7
    gauss = np.array(finals["gaussian"])
    assert joint.mean() <= gauss.mean()
    assert int((joint < gauss).sum()) >= 7
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"\nACCEPTANCE 7 orderings joint={joint.mean():.2e} only_s={np.mean(finals['only_s']):.2e} "
        f"only_o={np.mean(finals['only_o']):.2e} gaussian={gauss.mean():.2e} ({elapsed:.1f}s): PASS"
    )


def test_criterion_8_checkpoint_roundtrip():
    # check_persist drops each saved adapter before its load, so the load rebuilds cold
    probes = np.random.default_rng(68).standard_normal((len(METHODS), 8))
    rows = check_persist([(tag, 11, 8, 3, 200) for tag in METHODS], probes) + check_storage_ratio(11, 8, 3)
    assert [(row.threshold, row.passed) for row in rows] == [(0.0, True)] * 3
    # osora payload bytes, which the size row matched to the count: exactly 8 * (r + d), independent of k
    assert count_trainable("osora", 11, 8, 3) == 3 + 11
    print("\nACCEPTANCE 8 checkpoint round-trip bitwise, payload size, storage ratio: PASS")


def test_criterion_9_llm_benchmarks_out_of_scope():
    # Desk-scale property suites stand in for LLM fine-tuning accuracy
    # numbers (commonsense suites, GPQA, MATH/GSM8K), which this lab cannot
    # and does not reproduce. The README states this for users.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    assert "out of scope" in readme.read_text().lower()
    print("\nACCEPTANCE 9 llm benchmark accuracies declared out of scope: PASS")
