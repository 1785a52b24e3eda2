"""Closed-form trainable-parameter and training-memory accounting per method.

Counts per single d x k target at rank r:

    lora, pissa   r * (d + k)
    vera          r + d
    osora         r + d
    osora_k       r + k
    dora          r * (d + k) + d     (lora pair plus one magnitude per output dim)
    osora_dora    r + d + d           (osora pair plus the magnitude vector)

The training memory footprint adds the frozen singular factors (d*r + k*r
elements) for the svd-vector methods, which must be held in memory while
training even though they are never checkpointed.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from importlib import resources

from .adapters import _TABLE, METHODS, AdapterMethod, trainable_count
from .errors import RankOutOfRange


@dataclass(frozen=True)
class ShapePreset:
    name: str
    layers: int
    targets: tuple[tuple[int, int], ...]  # (d, k) per adapted matrix per layer


@dataclass(frozen=True)
class TargetCount:
    d: int
    k: int
    count: int  # trainable params for this target across all layers


@dataclass(frozen=True)
class ParamReport:
    method: str
    rank: int
    per_target: tuple[TargetCount, ...]
    total: int
    memory_footprint: int


def _check_dims(method: str, d: int, k: int, r: int) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if d < 1 or k < 1:
        raise ValueError(f"dims must be positive, got {d}x{k}")
    if r < 1:
        raise RankOutOfRange(f"rank must be >= 1, got {r}")
    if _TABLE[method].base == "w0_res" and r > min(d, k):  # built over a rank-r truncated SVD
        raise RankOutOfRange(f"rank {r} exceeds min(d, k) = {min(d, k)} for {method}")


def count_trainable(method: str, d: int, k: int, r: int) -> int:
    """Trainable parameters of one method on a single d x k weight at rank r."""
    _check_dims(method, d, k, r)
    return trainable_count(AdapterMethod(tag=method, rank=r), d, k)


def frozen_elements(method: str, d: int, k: int, r: int) -> int:
    """Frozen singular pair u_r, v_r that the s_r-scaled methods hold in memory during training."""
    _check_dims(method, d, k, r)
    return d * r + k * r if "s_r" in _TABLE[method].slots else 0


def report(preset: ShapePreset, method: str, r: int) -> ParamReport:
    """Per-target and total counts across every layer of a preset."""
    per_target = tuple(
        TargetCount(d=d, k=k, count=preset.layers * count_trainable(method, d, k, r))
        for d, k in preset.targets
    )
    total = sum(t.count for t in per_target)
    footprint = total + sum(
        preset.layers * frozen_elements(method, d, k, r) for d, k in preset.targets
    )
    return ParamReport(method=method, rank=r, per_target=per_target, total=total, memory_footprint=footprint)


def scaling_sweep(preset: ShapePreset, methods: list[str], ranks: list[int]) -> list[tuple[str, int, int]]:
    """Rows (method, rank, total trainable) for a rank sweep over a preset."""
    if not ranks or any(b <= a for a, b in zip(ranks, ranks[1:])):
        raise ValueError(f"ranks must be non-empty and ascending, got {ranks}")
    return [(method, r, report(preset, method, r).total) for method in methods for r in ranks]


def param_ratio(d: int, k: int, r: int) -> float:
    """Trainable-parameter ratio of the r+d vector methods over a rank-r lora pair."""
    if d < 1 or k < 1 or r < 1:
        raise ValueError(f"dims and rank must be positive, got d={d} k={k} r={r}")
    return (r + d) / (r * (d + k))


def _load_presets() -> dict[str, ShapePreset]:
    parser = configparser.ConfigParser()
    with resources.files(__package__).joinpath("data/presets.ini").open("r", encoding="utf-8") as fh:
        parser.read_file(fh)
    presets = {}
    for name in parser.sections():
        layers = parser.getint(name, "layers")
        targets = tuple(
            tuple(int(part) for part in item.strip().split("x"))
            for item in parser.get(name, "targets").split(",")
        )
        presets[name] = ShapePreset(name=name, layers=layers, targets=targets)
    return presets


_PRESETS = _load_presets()


def list_presets() -> list[str]:
    return sorted(_PRESETS)


def get_preset(name: str) -> ShapePreset:
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(list_presets())}") from None
