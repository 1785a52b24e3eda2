"""Span tracing of osora's public functions, installed from outside the package.

`Tracer.install` replaces each function named in LAYERS with a wrapper in
every `osora` namespace that holds it, including the ones that imported it
by name (`adapters.svd_truncated`, `training.gradient`, `cli.train`, ...).
A wrapper records one span per call: name, start, end, parent span and the
benchmark job it ran in. Spans stay in memory until `write` dumps them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import statistics
import sys
import time

import numpy as np

# Span name -> (module, function). The names are the layer metrics' prefixes.
LAYERS = {
    "linalg.jacobi_svd": ("osora.linalg", "jacobi_svd"),
    "linalg.svd_truncated": ("osora.linalg", "svd_truncated"),
    "adapters.build_adapter": ("osora.adapters", "build_adapter"),
    "adapters.forward": ("osora.adapters", "forward"),
    "adapters.merge": ("osora.adapters", "merge"),
    "adapters.load_trainable": ("osora.adapters", "load_trainable"),
    "gradients.gradient": ("osora.gradients", "gradient"),
    "gradients.finite_diff": ("osora.gradients", "finite_diff"),
    "training.train": ("osora.training", "train"),
    "training.make_task": ("osora.training", "make_task"),
    "checkpoint.save": ("osora.checkpoint", "save"),
    "checkpoint.load": ("osora.checkpoint", "load"),
    "accounting.report": ("osora.accounting", "report"),
    "verify.svd": ("osora.verify", "verify_svd"),
    "verify.grad": ("osora.verify", "verify_grad"),
    "verify.merge": ("osora.verify", "verify_merge"),
    "verify.persist": ("osora.verify", "verify_persist"),
    "cli.train": ("osora.cli", "cmd_train"),
    "cli.decompose": ("osora.cli", "cmd_decompose"),
    "cli.verify": ("osora.cli", "cmd_verify"),
    "cli.count": ("osora.cli", "cmd_count"),
}

# Per-layer metrics, in BENCHMARK.json order: name -> unit.
METRICS = {
    "linalg.jacobi_svd.calls": "count",
    "linalg.jacobi_svd.s": "s",
    "linalg.jacobi_svd.repeat_calls": "count",
    "linalg.jacobi_svd.deficient_s": "s",
    "linalg.svd_truncated.s": "s",
    "adapters.build_adapter.s": "s",
    "adapters.build_adapter.self_s": "s",
    "adapters.forward.calls": "count",
    "adapters.forward.s": "s",
    "adapters.merge.s": "s",
    "adapters.load_trainable.s": "s",
    "gradients.gradient.calls": "count",
    "gradients.gradient.s": "s",
    "gradients.finite_diff.s": "s",
    "training.train.s_per_step": "s",
    "training.train.self_s": "s",
    "training.make_task.self_s": "s",
    "checkpoint.save.s": "s",
    "checkpoint.save.bytes": "B",
    "checkpoint.load.s": "s",
    "checkpoint.load.self_s": "s",
    "accounting.report.s": "s",
    "verify.svd.s": "s",
    "verify.grad.s": "s",
    "verify.merge.s": "s",
    "verify.persist.s": "s",
    "cli.train.s": "s",
    "cli.decompose.s": "s",
    "cli.verify.s": "s",
    "cli.count.s": "s",
    "trace.job_ref.p50": "ref",
}

SETUP_JOB = -1


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "outermost", "child_s", "attrs")

    def __init__(self, name, parent, job, outermost):
        self.name, self.parent, self.job, self.outermost = name, parent, job, outermost
        self.start = self.end = self.child_s = 0.0
        self.attrs = None

    @property
    def dur(self) -> float:
        return self.end - self.start


def _digest(a) -> str:
    m = np.ascontiguousarray(a, dtype=np.float64)
    return hashlib.sha1(repr(m.shape).encode() + m.tobytes()).hexdigest()


def _before(name, args, kwargs):
    if name == "linalg.jacobi_svd":
        return {"digest": _digest(args[0] if args else kwargs["w"])}
    if name == "training.train":
        return {"steps": (args[2] if len(args) > 2 else kwargs["config"]).steps}
    return None


def _after(name, span, args, kwargs, result):
    if name == "linalg.jacobi_svd":
        span.attrs["deficient"] = bool((result[1] == 0.0).any())
    elif name == "checkpoint.save":
        span.attrs = {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}


class Tracer:
    """Records spans while `active`; `job` tags them with the current job index."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.job = SETUP_JOB
        self._stack: list[int] = []
        self._depth = dict.fromkeys(LAYERS, 0)

    def _wrap(self, name, fn):
        spans, stack, depth = self.spans, self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = Span(name, stack[-1] if stack else -1, self.job, depth[name] == 0)
            span.attrs = _before(name, args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            depth[name] += 1
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                depth[name] -= 1
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.dur
            _after(name, span, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every LAYERS function in each loaded osora module that names it."""
        wrapped = {}
        for name, (module, attr) in LAYERS.items():
            fn = getattr(sys.modules[module], attr)
            wrapped[id(fn)] = self._wrap(name, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "osora" and not modname.startswith("osora."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])

    def metrics(self, jobs: int, job_ref_p50: float) -> dict[str, float]:
        """Per-layer metrics per job of the timed loop (spans with job >= 0)."""
        loop = [s for s in self.spans if s.job >= 0]
        outer_s, outer_calls, self_s = {}, {}, {}
        for s in loop:
            self_s[s.name] = self_s.get(s.name, 0.0) + s.dur - s.child_s
            if s.outermost:
                outer_s[s.name] = outer_s.get(s.name, 0.0) + s.dur
                outer_calls[s.name] = outer_calls.get(s.name, 0) + 1

        svd = [s for s in loop if s.name == "linalg.jacobi_svd" and s.outermost]
        seen, repeats = set(), 0
        for s in svd:
            key = (s.job, s.attrs["digest"])
            repeats += key in seen
            seen.add(key)
        trains = [s for s in loop if s.name == "training.train"]
        steps = sum(s.attrs["steps"] for s in trains)
        tasks = [s for s in self.spans if s.name == "training.make_task"]

        out = {}
        for metric in METRICS:
            layer, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = outer_calls.get(layer, 0) / jobs
            elif kind == "s":
                out[metric] = outer_s.get(layer, 0.0) / jobs
            elif kind == "self_s":
                out[metric] = self_s.get(layer, 0.0) / jobs
        out["linalg.jacobi_svd.repeat_calls"] = repeats / jobs
        out["linalg.jacobi_svd.deficient_s"] = sum(s.dur for s in svd if s.attrs.get("deficient")) / jobs
        out["training.train.s_per_step"] = sum(s.dur for s in trains) / steps if steps else 0.0
        # make_task mostly runs in set-up (train_steps), so it is per call, set-up included.
        out["training.make_task.self_s"] = (
            statistics.fmean(s.dur - s.child_s for s in tasks) if tasks else 0.0
        )
        out["checkpoint.save.bytes"] = (
            sum(s.attrs["bytes"] for s in loop if s.name == "checkpoint.save" and s.attrs) / jobs
        )
        out["trace.job_ref.p50"] = job_ref_p50
        return {metric: out[metric] for metric in METRICS}

    def write(self, path) -> None:
        """Dump every span as one JSON line, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                row = {"id": i, "name": s.name, "parent": s.parent, "job": s.job,
                       "start": s.start - t0, "end": s.end - t0}
                if s.attrs:
                    row.update(s.attrs)
                fh.write(json.dumps(row) + "\n")
