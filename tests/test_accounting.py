import numpy as np
import pytest

from conftest import LIVE_BUILDS, perturbed_state
from osora import (
    METHODS,
    AdapterMethod,
    RankOutOfRange,
    ShapePreset,
    build_adapter,
    count_trainable,
    frozen_elements,
    get_preset,
    list_presets,
    param_ratio,
    random_matrix,
    report,
    scaling_sweep,
    trainable_vector,
)


class TestCountTrainable:
    def test_lora_small(self):
        assert count_trainable("lora", 4, 4, 2) == 16

    def test_osora_large(self):
        assert count_trainable("osora", 4096, 4096, 512) == 4608

    @pytest.mark.parametrize(
        "method,expected",
        [
            ("lora", 2 * (10 + 8)),
            ("pissa", 2 * (10 + 8)),
            ("vera", 2 + 10),
            ("osora", 2 + 10),
            ("osora_k", 2 + 8),
            ("dora", 2 * (10 + 8) + 10),
            ("osora_dora", 2 + 10 + 10),
        ],
    )
    def test_formula_table(self, method, expected):
        assert count_trainable(method, 10, 8, 2) == expected

    @pytest.mark.parametrize("tag", METHODS)
    def test_count_matches_built_adapter(self, tag):
        state, _ = perturbed_state(tag, 10, 8, 2, 1)
        assert trainable_vector(state).size == count_trainable(tag, 10, 8, 2)

    def test_ablation_slices(self):
        only_s, _ = perturbed_state("osora", 10, 8, 2, 1, trainable_set="only_s")
        only_o, _ = perturbed_state("osora", 10, 8, 2, 1, trainable_set="only_o")
        assert trainable_vector(only_s).size == 2
        assert trainable_vector(only_o).size == 10

    def test_rank_bounds(self):
        with pytest.raises(RankOutOfRange):
            count_trainable("osora", 8, 4, 5)
        assert count_trainable("lora", 8, 4, 5) == 60
        with pytest.raises(RankOutOfRange):
            count_trainable("vera", 8, 4, 0)
        with pytest.raises(ValueError):
            count_trainable("adapterx", 8, 4, 1)


class TestReport:
    def test_published_totals_on_mistral_preset(self):
        preset = get_preset("mistral7b_v03")
        assert report(preset, "osora", 512).total == 196_608
        assert report(preset, "osora_k", 512).total == 294_912
        assert report(preset, "dora", 16).total == 6_979_584
        assert report(preset, "osora_dora", 512).total == 360_448

    def test_llama3_matches_mistral_shapes(self):
        a = get_preset("mistral7b_v03")
        b = get_preset("llama3_8b")
        for method, r in [("osora", 512), ("osora_k", 512), ("dora", 16), ("osora_dora", 512)]:
            assert report(a, method, r).total == report(b, method, r).total

    def test_total_is_sum_of_per_target_counts(self):
        rep = report(get_preset("qwen2_7b"), "osora", 64)
        assert rep.total == sum(t.count for t in rep.per_target)

    def test_osora_memory_footprint_adds_frozen_factors(self):
        preset = get_preset("mistral7b_v03")
        rep = report(preset, "osora", 512)
        # trainable s_r and o, plus frozen u_r, v_r, o0 and s0
        expected = sum(
            preset.layers * ((512 + d) + (d * 512 + k * 512 + d + 512)) for d, k in preset.targets
        )
        assert rep.memory_footprint == expected

    @pytest.mark.parametrize("tag,o_init", LIVE_BUILDS)
    def test_footprint_is_what_a_build_holds_beyond_w0(self, tag, o_init):
        # Every frozen array but the d x k w0, plus every trainable, of a real build.
        for d, k, r in [(10, 8, 2), (7, 12, 3), (9, 9, 9)]:
            w0 = random_matrix(d, k, (d, k), "gaussian")
            state = build_adapter(w0, AdapterMethod(tag=tag, rank=r, o_init=o_init), seed=d)
            held = sum(arr.size for name, arr in state.frozen.items() if name != "w0")
            held += sum(arr.size for arr in state.trainable.values())
            assert report(ShapePreset("one", 3, ((d, k),)), tag, r).memory_footprint == 3 * held

    def test_lora_footprint_is_trainable_only(self):
        rep = report(get_preset("qwen2_7b"), "lora", 16)
        assert rep.memory_footprint == rep.total
        assert frozen_elements("lora", 10, 8, 2) == 0


class TestScalingSweep:
    RANKS = [64, 128, 256, 512]

    def test_qwen_closed_form(self):
        # per layer: (r + 3584) + (r + 512) = 2r + 4096, over 28 layers
        rows = scaling_sweep(get_preset("qwen2_7b"), ["osora"], self.RANKS)
        expected = {64: 118_272, 128: 121_856, 256: 129_024, 512: 143_360}
        for _, r, total in rows:
            assert total == 28 * (2 * r + 4096)
            assert total == expected[r]

    def test_osora_totals_affine_in_rank(self):
        rows = scaling_sweep(get_preset("qwen2_7b"), ["osora", "vera"], self.RANKS)
        for tag in ("osora", "vera"):
            totals = [t for m, _, t in rows if m == tag]
            slopes = [
                (b - a) / (rb - ra)
                for (a, b), (ra, rb) in zip(zip(totals, totals[1:]), zip(self.RANKS, self.RANKS[1:]))
            ]
            assert len(set(slopes)) == 1

    def test_lora_slope_exceeds_osora_slope_everywhere(self):
        for name in list_presets():
            preset = get_preset(name)
            lora = [t for _, _, t in scaling_sweep(preset, ["lora"], [8, 16])]
            osora = [t for _, _, t in scaling_sweep(preset, ["osora"], [8, 16])]
            assert lora[1] - lora[0] > osora[1] - osora[0]

    def test_rejects_bad_rank_grid(self):
        with pytest.raises(ValueError):
            scaling_sweep(get_preset("qwen2_7b"), ["osora"], [])
        with pytest.raises(ValueError):
            scaling_sweep(get_preset("qwen2_7b"), ["osora"], [64, 32])


class TestParamRatio:
    def test_square_full_rank_identity(self):
        for d in (4, 64, 4096):
            assert abs(param_ratio(d, d, d) - 1.0 / d) <= 1e-15 / d

    def test_reference_value(self):
        got = param_ratio(4096, 4096, 512)
        direct = 4608 / 4_194_304
        assert got == direct
        assert abs(got - 1.0986e-3) < 1e-6

    def test_two_closed_forms_agree(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = int(rng.integers(1, 5000))
            k = int(rng.integers(1, 5000))
            r = int(rng.integers(1, 800))
            first = param_ratio(d, k, r)
            second = 1.0 / (d + k) + d / (r * (d + k))
            assert abs(first - second) <= 1e-15 * abs(second)


def test_unknown_preset():
    with pytest.raises(ValueError):
        get_preset("gpt5_colossal")
    assert list_presets() == ["llama3_8b", "mistral7b_v03", "qwen2_7b"]
