"""Closed-form trainable-parameter and training-memory accounting per method.

Counts per single d x k target at rank r:

    lora, pissa   r * (d + k)
    vera          r + d
    osora         r + d
    osora_k       r + k
    dora          r * (d + k) + d     (lora pair plus one magnitude per output dim)
    osora_dora    r + d + d           (osora pair plus the magnitude vector)

The training memory footprint adds every element a build freezes beyond the
d x k w0, held while training though never checkpointed: the closed form
`frozen_size` of each method's record in adapters._TABLE.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from importlib import resources

from .adapters import _TABLE, AdapterMethod, trainable_count
from .errors import InvalidConfig, RankOutOfRange
from .linalg import check_integers


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


def _check_dims(method: str, d: int, k: int, r: int) -> AdapterMethod:
    """The AdapterMethod of (method, r), once a d x k weight is checked to hold it."""
    spec = AdapterMethod(tag=method, rank=r)
    check_integers(d=d, k=k)
    if d < 1 or k < 1:
        raise InvalidConfig(f"dims must be positive, got {d}x{k}")
    if _TABLE[method].svd and r > min(d, k):  # built over a rank-r truncated SVD
        raise RankOutOfRange(f"rank {r} exceeds min(d, k) = {min(d, k)} for {method}")
    return spec


def count_trainable(method: str, d: int, k: int, r: int) -> int:
    """Trainable parameters of one method on a single d x k weight at rank r."""
    return trainable_count(_check_dims(method, d, k, r), d, k)


def frozen_elements(method: str, d: int, k: int, r: int) -> int:
    """Elements a build of one method over a d x k weight at rank r freezes beyond w0 itself."""
    _check_dims(method, d, k, r)
    return _TABLE[method].frozen_size(d, k, r)


def report(preset: ShapePreset, method: str, r: int) -> ParamReport:
    """Per-target and total counts across every layer of a preset."""
    if not isinstance(preset, ShapePreset):
        raise InvalidConfig(f"preset must be a ShapePreset from get_preset(name), got {preset!r}")
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
    """Rows (method, rank, total trainable) for a rank sweep over a preset; report checks the preset."""
    if not isinstance(methods, (list, tuple)) or not methods:
        raise InvalidConfig(f"methods must be a non-empty list or tuple of method tags, got {methods!r}")
    check_integers(**{f"ranks[{i}]": r for i, r in enumerate(ranks or ())})
    if not ranks or any(b <= a for a, b in zip(ranks, ranks[1:])):
        raise InvalidConfig(f"ranks must be non-empty and ascending, got {ranks}")
    return [(method, r, report(preset, method, r).total) for method in methods for r in ranks]


def param_ratio(d: int, k: int, r: int) -> float:
    """Trainable-parameter ratio of the r+d vector methods over a rank-r lora pair."""
    check_integers(d=d, k=k, rank=r)
    if d < 1 or k < 1 or r < 1:
        raise InvalidConfig(f"dims and rank must be positive, got d={d} k={k} r={r}")
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
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise InvalidConfig(f"unknown preset {name!r}; available: {', '.join(list_presets())}") from None
