"""The benchmark's three workloads.

A workload makes its inputs from the run seed, sets up (`setup`, timed and
repeated), runs jobs in a closed loop (`inputs` untimed, then `job` timed) and
checks every output afterwards (`check`). Every job is the same bundle of
operations, so job times form one mode and each job adds the same number of
attempted and failed operations. Only osora's public functions are called,
always through the `osora` namespaces so that a traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import struct

import numpy as np
import osora
import osora.cli

import checks

SVD_METHODS = ("osora", "osora_k", "osora_dora", "pissa")


def sub_seed(seed: int, *keys: int) -> int:
    """A 31-bit seed drawn from the run seed and non-negative keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0] >> 1)


def job_seed(seed: int, j: int) -> int:
    """Seed of job j; set-up jobs have negative j and their own stream."""
    return sub_seed(seed, 1, -j) if j < 0 else sub_seed(seed, 2, j)


def job_rng(seed: int, j: int, slot: int) -> np.random.Generator:
    return np.random.default_rng([job_seed(seed, j), slot])


class Workload:
    ops_per_job = 0
    # Set-ups per run; setup_s is their median.
    setups = 5

    def __init__(self, seed: int, work, presets: dict):
        self.seed, self.work, self.presets = seed, work, presets
        self.setup_outputs: list = []

    def setup(self, i: int) -> None:
        """Default set-up: one job outside the timed loop, on its own inputs; it also fills lazy caches."""
        j = -1 - i
        self.setup_outputs.append(self.job(j, self.inputs(j))[1])

    def inputs(self, j: int):
        return None


class TrainSteps(Workload):
    """Adam training at the reference gradient shape; no SVD runs in a job."""

    d = k = 128
    n = 256
    r_gap = rank = 4
    steps = 25
    lr = 1e-2
    ops_per_job = len(osora.METHODS)
    setups = 3  # each builds a task and seven adapters, all used by the loop

    def __init__(self, *args):
        super().__init__(*args)
        self.tasks = []

    def setup(self, i: int) -> None:
        task = osora.make_task(self.d, self.k, self.r_gap, sub_seed(self.seed, 0, i), n=self.n)
        states = {m: osora.build_adapter(task.w0, osora.AdapterMethod(m, self.rank), task.seed) for m in osora.METHODS}
        self.tasks.append((task, states))

    def job(self, j, _inputs):
        task, states = self.tasks[j % len(self.tasks)]
        config = osora.TrainConfig(steps=self.steps, lr=self.lr, optimizer="adam")
        return 0, [osora.train(states[m], task, config) for m in osora.METHODS]

    def check(self, outputs) -> list[str]:
        # Training is deterministic, so a repeat of a (task, method) pair must
        # match its first run byte for byte; first runs get the full checks.
        problems, first = [], {}
        for j, runs in enumerate(outputs):
            task = self.tasks[j % len(self.tasks)][0]
            for m, run in zip(osora.METHODS, runs):
                where = f"train_steps job {j} {m}"
                got = (run.loss_trace.tobytes(), osora.trainable_vector(run.final_state).tobytes())
                if (task.seed, m) in first:
                    if got != first[task.seed, m]:
                        problems.append(f"{where}: differs from the first run of this task and method")
                    continue
                first[task.seed, m] = got
                size = osora.trainable_vector(run.final_state).size
                coords = job_rng(self.seed, j, 1).choice(size, 3, replace=False)
                problems += checks.training(where, run.final_state, run.loss_trace, task.probes, task.targets, coords)
        return problems


# Header byte 9 (o_init code), byte 10 (trainable_set code), last payload double.
DAMAGES = ("o_init_code", "trainable_set_code", "nan_payload")


def damage(blob: bytes, kind: str) -> bytes:
    b = bytearray(blob)
    if kind == "o_init_code":
        b[9] = 0x7F
    elif kind == "trainable_set_code":
        b[10] = 0x7F
    else:
        b[-8:] = struct.pack("<d", float("nan"))
    return bytes(b)


class AdaptBuild(Workload):
    """Adapt one decoder layer of each preset shape, scaled down 64x: build, save, load, damaged loads."""

    scale = 64
    rank = 8

    def __init__(self, *args):
        super().__init__(*args)
        layers = {tuple((d // self.scale, k // self.scale) for d, k in t) for _, t in self.presets.values()}
        self.targets = [shape for layer in sorted(layers, reverse=True) for shape in layer]
        self.small = min(range(len(self.targets)), key=lambda t: self.targets[t][0] * self.targets[t][1])
        self.ops_per_job = 3 * len(self.targets) + len(DAMAGES)

    def inputs(self, j):
        rng = job_rng(self.seed, j, 0)
        return [rng.standard_normal((d, k)) / np.sqrt(k) for d, k in self.targets]

    def job(self, j, weights):
        method = osora.AdapterMethod(SVD_METHODS[j % len(SVD_METHODS)], self.rank)
        seed = job_seed(self.seed, j)
        built, paths = [], []
        for t, w in enumerate(weights):
            state = osora.build_adapter(w, method, seed)
            path = self.work / f"adapt-{j}-{t}.ckpt"
            osora.save(state, path)
            built.append(state)
            paths.append(path)
        loaded = [osora.load(p, w) for p, w in zip(paths, weights)]
        failed = 0
        blob = paths[self.small].read_bytes()
        for kind in DAMAGES:
            path = self.work / f"adapt-{j}-{kind}.ckpt"
            path.write_bytes(damage(blob, kind))
            try:
                osora.load(path, weights[self.small])
            except osora.OsoraError:
                continue
            except IndexError:  # out-of-range header code
                failed += 1
                continue
            failed += 1  # loaded without complaint
        return failed, (j, weights, built, loaded, paths)

    def check(self, outputs) -> list[str]:
        problems = []
        for j, weights, built, loaded, paths in self.setup_outputs + outputs:
            x = job_rng(self.seed, j, 1).standard_normal((max(k for _, k in self.targets), 4))
            for w, state, back, path in zip(weights, built, loaded, paths):
                where = f"adapt_build job {j} {state.method.tag} {w.shape[0]}x{w.shape[1]}"
                xs = x[: w.shape[1]]
                problems += checks.svd_factors(where, w, state)
                problems += checks.starts_at_base(where, w, state, xs)
                problems += checks.checkpoint_roundtrip(where, state, back, path, xs)
        return problems


class LabCli(Workload):
    """The README's desk session through osora.cli.main, in-process."""

    decompose_rank = 6
    product_rank = 4
    count_ranks = "4,8,16,64"
    ops_per_job = 4

    def _paths(self, j):
        return (self.work / f"cli-{j}", self.work / f"cli-{j}.txt", self.work / f"cli-{j}.csv")

    def inputs(self, j):
        # An exact rank-4 32x32 product, the shape and rank of a learned update.
        d, k = osora.STANDARD_TASK["d"], osora.STANDARD_TASK["k"]
        rng = job_rng(self.seed, j, 0)
        w = rng.standard_normal((d, self.product_rank)) @ rng.standard_normal((self.product_rank, k))
        _, matrix, _ = self._paths(j)
        rows = [" ".join(repr(v) for v in row) for row in w.tolist()]
        matrix.write_text(f"{d} {k}\n" + "\n".join(rows) + "\n")
        return w

    def job(self, j, w):
        method = osora.METHODS[j % len(osora.METHODS)]
        seed = job_seed(self.seed, j)
        preset = sorted(self.presets)[j % len(self.presets)]
        out, matrix, table = self._paths(j)
        commands = {
            "train": ["train", "--method", method, "--seed", str(seed), "--out", str(out)],
            "decompose": ["decompose", str(matrix), "--rank", str(self.decompose_rank)],
            "verify": ["verify", "all", "--seed", str(seed)],
            "count": ["count", "--preset", preset, "--rank", self.count_ranks, "--out", str(table)],
        }
        printed, codes = {}, {}
        for name, argv in commands.items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes[name] = osora.cli.main(argv)
            printed[name] = buf.getvalue()
        return 0, (j, method, seed, preset, w, codes, printed)

    def check(self, outputs) -> list[str]:
        problems = []
        std = osora.STANDARD_TASK
        for j, method, seed, preset, w, codes, printed in self.setup_outputs + outputs:
            where = f"lab_cli job {j}"
            out, _, table = self._paths(j)
            problems += [f"{where} {name}: exit code {code}" for name, code in codes.items() if code != 0]
            if codes["train"] == 0:
                lines = (out / "loss.csv").read_text().splitlines()[1:]
                trace = np.array([float(line.split(",")[1]) for line in lines])
                task = osora.make_task(std["d"], std["k"], std["r_gap"], seed, n=std["n"])
                state = osora.load(out / "adapter.ckpt", task.w0)
                coords = job_rng(self.seed, j, 1).choice(osora.trainable_vector(state).size, 3, replace=False)
                problems += checks.training(f"{where} train {method}", state, trace, task.probes, task.targets, coords)
            if codes["decompose"] == 0:
                problems += checks.decompose_output(f"{where} decompose", printed["decompose"], w, self.decompose_rank)
            problems += checks.verify_output(f"{where} verify", printed["verify"])
            if codes["count"] == 0:
                layers, targets = self.presets[preset]
                problems += checks.count_csv(f"{where} count {preset}", table, layers, targets)
        return problems


WORKLOADS = {"train_steps": TrainSteps, "adapt_build": AdaptBuild, "lab_cli": LabCli}
