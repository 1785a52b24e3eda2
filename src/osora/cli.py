"""Command-line driver: decompose, train, count, verify.

Matrix files are plain text: a "rows cols" header line followed by the
row-major entries, whitespace-separated. CSV outputs use a fixed header row
and shortest round-trip decimals, so reruns of the same config are
byte-identical.

Exit codes: 1 failed verify check, 2 rank out of range or unknown preset,
3 parse/config failure, an output that cannot be written, or a train run
whose arrays do not fit in memory, 4 non-finite training loss.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import sys
from pathlib import Path

import numpy as np

from . import checkpoint
from .accounting import get_preset, report, scaling_sweep
from .adapters import METHODS, O_INITS, TRAINABLE_SETS, AdapterMethod, build_adapter
from .errors import IoFailure, NonFiniteLoss, OsoraError, RankOutOfRange
from .linalg import svd_truncated
from .training import STANDARD_TASK, TrainConfig, make_task, train
from .verify import SCOPES, run_scope

EXIT_CHECK_FAILED = 1
EXIT_BAD_RANGE = 2
EXIT_PARSE = 3
EXIT_NONFINITE = 4

# Keys each command may take from a --config file section.
_CONFIG_KEYS = {
    "decompose": {"rank", "out"},
    "train": {"seed", "rank", "method", "steps", "lr", "optimizer", "o_init", "trainable", "out", "d", "k", "r_gap", "n"},
    "count": {"preset", "method", "rank", "out"},
    "verify": {"seed"},
}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def read_matrix(path) -> np.ndarray:
    """Parse the text matrix format: 'rows cols' header, then the entries."""
    try:
        tokens = Path(path).read_text().split()
    except OSError as exc:
        raise CliError(f"cannot read matrix file {path}: {exc}", EXIT_PARSE) from exc
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
        values = [float(t) for t in tokens[2:]]
    except (IndexError, ValueError) as exc:
        raise CliError(f"malformed matrix file {path}: {exc}", EXIT_PARSE) from exc
    if rows < 1 or cols < 1 or len(values) != rows * cols:
        raise CliError(
            f"matrix file {path} declares {rows}x{cols} but carries {len(values)} entries", EXIT_PARSE
        )
    return np.array(values).reshape(rows, cols)


def write_matrix(path, w: np.ndarray) -> None:
    lines = [f"{w.shape[0]} {w.shape[1]}"]
    lines += [" ".join(repr(x) for x in row) for row in w.tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def _load_config_section(path, command: str) -> dict[str, str]:
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise CliError(f"cannot parse config {path}: {exc}", EXIT_PARSE) from exc
    for section in parser.sections():
        if section not in _CONFIG_KEYS:
            raise CliError(f"config {path}: unknown section [{section}]", EXIT_PARSE)
        unknown = set(parser[section]) - _CONFIG_KEYS[section]
        if unknown:
            raise CliError(f"config {path}: unknown keys in [{section}]: {sorted(unknown)}", EXIT_PARSE)
    return dict(parser[command]) if parser.has_section(command) else {}


def _setting(args, file_cfg: dict[str, str], key: str, default, cast):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in file_cfg:
        try:
            return cast(file_cfg[key])
        except ValueError as exc:
            raise CliError(f"config key {key}: {exc}", EXIT_PARSE) from exc
    return default


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise CliError(f"seed must be in [0, 2**64), got {seed}", EXIT_PARSE)


def _write_csv(path, header: list[str], rows: list[list]) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([[str(cell) for cell in row] for row in rows])
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def cmd_decompose(args) -> int:
    w = read_matrix(args.matrix)
    if args.rank is None:
        raise CliError("--rank is required", EXIT_PARSE)
    factors = svd_truncated(w, args.rank)
    trunc_err = float(np.sqrt((factors.residual**2).sum()))
    print(f"rows={w.shape[0]} cols={w.shape[1]} rank={factors.rank}")
    print("singular_values=" + ",".join(repr(s) for s in factors.s_r.tolist()))
    print(f"truncation_error={trunc_err!r}")
    if args.out:
        checkpoint.save_snapshot(
            args.out,
            {
                "u_r": factors.u_r,
                "s_r": factors.s_r,
                "v_r": factors.v_r,
                "residual": factors.residual,
            },
            d=w.shape[0],
            k=w.shape[1],
            rank=factors.rank,
        )
    return 0


def cmd_train(args, file_cfg: dict[str, str]) -> int:
    seed = _setting(args, file_cfg, "seed", 0, int)
    rank = _setting(args, file_cfg, "rank", STANDARD_TASK["r_gap"], int)
    method_tag = _setting(args, file_cfg, "method", "osora", str)
    steps = _setting(args, file_cfg, "steps", 500, int)
    lr = _setting(args, file_cfg, "lr", 1e-2, float)
    optimizer = _setting(args, file_cfg, "optimizer", "adam", str)
    o_init = _setting(args, file_cfg, "o_init", "ones", str)
    trainable = _setting(args, file_cfg, "trainable", "both", str)
    out = _setting(args, file_cfg, "out", None, str)
    d = _setting(args, file_cfg, "d", STANDARD_TASK["d"], int)
    k = _setting(args, file_cfg, "k", STANDARD_TASK["k"], int)
    r_gap = _setting(args, file_cfg, "r_gap", STANDARD_TASK["r_gap"], int)
    n = _setting(args, file_cfg, "n", STANDARD_TASK["n"], int)

    _check_seed(seed)
    try:
        method = AdapterMethod(tag=method_tag, rank=rank, o_init=o_init, trainable_set=trainable)
        config = TrainConfig(steps=steps, lr=lr, optimizer=optimizer)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc
    try:
        task = make_task(d, k, r_gap, seed, n=n)
        state = build_adapter(task.w0, method, seed)
        run = train(state, task, config)
    except MemoryError as exc:
        raise CliError(f"out of memory: {exc}", EXIT_PARSE) from exc

    if out:
        out_dir = Path(out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise IoFailure(f"cannot create {out_dir}: {exc}") from exc
        _write_csv(out_dir / "loss.csv", ["step", "loss"], [[i, repr(v)] for i, v in enumerate(run.loss_trace.tolist())])
        checkpoint.save(run.final_state, out_dir / "adapter.ckpt")
    print(
        f"method={method_tag} rank={rank} "
        f"init_loss={float(run.loss_trace[0])!r} final_loss={float(run.loss_trace[-1])!r}"
    )
    return 0


def cmd_count(args, file_cfg: dict[str, str]) -> int:
    preset_name = _setting(args, file_cfg, "preset", None, str)
    methods_raw = _setting(args, file_cfg, "method", ",".join(METHODS), str)
    ranks_raw = _setting(args, file_cfg, "rank", None, str)
    out = _setting(args, file_cfg, "out", None, str)
    if preset_name is None or ranks_raw is None:
        raise CliError("--preset and --rank are required", EXIT_PARSE)
    try:
        preset = get_preset(preset_name)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_RANGE) from exc
    methods = [m.strip() for m in str(methods_raw).split(",") if m.strip()]
    try:
        ranks = sorted({int(r) for r in str(ranks_raw).split(",")})
    except ValueError as exc:
        raise CliError(f"bad rank list {ranks_raw!r}: {exc}", EXIT_PARSE) from exc
    try:
        scaling_sweep(preset, methods, ranks)  # validates methods and ranks early
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PARSE) from exc
    rows = []
    for method in methods:
        for r in ranks:
            rep = report(preset, method, r)
            rows.append([method, r, rep.total, rep.memory_footprint])
    rows.sort(key=lambda row: (row[0], row[1]))
    for row in rows:
        print(f"{row[0]} r={row[1]} trainable={row[2]} footprint={row[3]}")
    if out:
        _write_csv(out, ["method", "rank", "trainable_params", "memory_footprint"], rows)
    return 0


def cmd_verify(args, file_cfg: dict[str, str]) -> int:
    seed = _setting(args, file_cfg, "seed", 0, int)
    _check_seed(seed)
    results = run_scope(args.scope, seed=seed, inject_fault=args.inject_fault == "perturb_u")
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.name} max_err={res.max_err:.3e} threshold={res.threshold:.1e} {status}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_CHECK_FAILED if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="osora", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="truncated SVD of a matrix file")
    p.add_argument("matrix", help="path to a text matrix file")
    p.add_argument("--rank", type=int)
    p.add_argument("--out", help="write factors to a debug snapshot")
    p.add_argument("--config")

    p = sub.add_parser("train", help="train an adapter on the toy task")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--rank", type=int)
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--steps", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--optimizer", choices=("sgd", "adam"))
    p.add_argument("--o-init", dest="o_init", choices=O_INITS)
    p.add_argument("--trainable", choices=TRAINABLE_SETS)
    p.add_argument("--out", help="output directory for loss.csv and adapter.ckpt")

    p = sub.add_parser("count", help="parameter accounting over a shape preset")
    p.add_argument("--config")
    p.add_argument("--preset")
    p.add_argument("--method", help="comma-separated method tags (default: all)")
    p.add_argument("--rank", help="comma-separated ranks")
    p.add_argument("--out", help="CSV output path")

    p = sub.add_parser("verify", help="run the invariant check suites")
    p.add_argument("scope", choices=SCOPES)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--inject-fault", choices=("none", "perturb_u"), default="none", help="negative control for the merge check")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_cfg = _load_config_section(args.config, args.command) if getattr(args, "config", None) else {}
        if args.command == "decompose":
            return cmd_decompose(args)
        if args.command == "train":
            return cmd_train(args, file_cfg)
        if args.command == "count":
            return cmd_count(args, file_cfg)
        return cmd_verify(args, file_cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except RankOutOfRange as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_RANGE
    except NonFiniteLoss as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONFINITE
    except OsoraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
