"""Command-line driver: decompose, train, count, verify.

Matrix files are plain text: a "rows cols" header line followed by the
row-major entries, whitespace-separated. CSV outputs use a fixed header row
and shortest round-trip decimals, so reruns of the same config are
byte-identical.

Exit codes: 1 failed verify check, 2 rank out of range or unknown preset,
or a command line that argparse refuses (an unknown flag or choice, a flag
value of the wrong type), 3 parse/config failure (a --config file's bad
value included), an output that cannot be written, or a train run whose
arrays do not fit in memory, 4 non-finite training loss.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import sys
from pathlib import Path

import numpy as np

from . import checkpoint
from .accounting import get_preset, report
from .adapters import METHODS, O_INITS, TRAINABLE_SETS, AdapterMethod, build_adapter
from .errors import IoFailure, NonFiniteLoss, OsoraError, RankOutOfRange
from .linalg import fro_norm, svd_path, svd_truncated
from .training import STANDARD_TASK, TrainConfig, make_task, train
from .verify import SCOPES, run_scope

EXIT_CHECK_FAILED = 1
EXIT_BAD_RANGE = 2
EXIT_PARSE = 3
EXIT_NONFINITE = 4

# Each command's settings: key -> (cast, default, flag). `flag` holds the extra
# add_argument keywords of the key's --flag, or None for a config-only key. A
# flag wins over the command's --config section, and the section over the
# default; a section may hold only its command's keys.
_SETTINGS = {
    "decompose": {
        "rank": (int, None, {}),
        "out": (str, None, {"help": "output directory for u_r.txt, s_r.txt, v_r.txt and residual.txt"}),
    },
    "train": {
        "seed": (int, 0, {}),
        "rank": (int, STANDARD_TASK["r_gap"], {}),
        "method": (str, "osora", {"choices": METHODS}),
        "steps": (int, 500, {}),
        "lr": (float, 1e-2, {}),
        "optimizer": (str, "adam", {"choices": ("sgd", "adam")}),
        "o_init": (str, "ones", {"choices": O_INITS}),
        "trainable": (str, "both", {"choices": TRAINABLE_SETS}),
        "out": (str, None, {"help": "output directory for loss.csv and adapter.ckpt"}),
        **{key: (int, default, None) for key, default in STANDARD_TASK.items()},
    },
    "count": {
        "preset": (str, None, {}),
        "method": (str, ",".join(METHODS), {"help": "comma-separated method tags (default: all)"}),
        "rank": (str, None, {"help": "comma-separated ranks"}),
        "out": (str, None, {"help": "CSV output path"}),
    },
    "verify": {"seed": (int, 0, {})},
}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def read_matrix(path) -> np.ndarray:
    """Parse the text matrix format: 'rows cols' header, then the entries."""
    try:
        tokens = Path(path).read_text(encoding="utf-8").split()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read matrix file {path}: {exc}", EXIT_PARSE) from exc
    if len(tokens) < 2:
        raise CliError(f"malformed matrix file {path}: missing the 'rows cols' header", EXIT_PARSE)
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
        values = [float(t) for t in tokens[2:]]
    except ValueError as exc:
        raise CliError(f"malformed matrix file {path}: {exc}", EXIT_PARSE) from exc
    if rows < 1 or cols < 1 or len(values) != rows * cols:
        raise CliError(
            f"matrix file {path} declares {rows}x{cols} but carries {len(values)} entries", EXIT_PARSE
        )
    return np.array(values).reshape(rows, cols)


def write_matrix(path, w: np.ndarray) -> None:
    """Write w in the text matrix format; repr floats read back bit for bit."""
    lines = [f"{w.shape[0]} {w.shape[1]}"]
    lines += [" ".join(repr(x) for x in row) for row in w.tolist()]
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _make_out_dir(out) -> Path:
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {out_dir}: {exc}") from exc
    return out_dir


def _resolve_settings(args) -> None:
    """Set each of the command's settings on `args`: its flag, else its config key, else the default."""
    section = {}
    if args.config:
        parser = configparser.ConfigParser()
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except (OSError, UnicodeDecodeError, configparser.Error) as exc:
            raise CliError(f"cannot parse config {args.config}: {exc}", EXIT_PARSE) from exc
        # configparser hands [DEFAULT]'s keys to every section, so they would
        # read as another command's keys; no command has defaults to share.
        if parser.defaults():
            raise CliError(f"config {args.config}: a [DEFAULT] section is not supported", EXIT_PARSE)
        for name in parser.sections():
            if name not in _SETTINGS:
                raise CliError(f"config {args.config}: unknown section [{name}]", EXIT_PARSE)
            unknown = set(parser[name]) - set(_SETTINGS[name])
            if unknown:
                raise CliError(f"config {args.config}: unknown keys in [{name}]: {sorted(unknown)}", EXIT_PARSE)
        section = dict(parser[args.command]) if parser.has_section(args.command) else {}
    for key, (cast, default, _) in _SETTINGS[args.command].items():
        if getattr(args, key, None) is not None:
            continue
        try:
            setattr(args, key, cast(section[key]) if key in section else default)
        except ValueError as exc:
            raise CliError(f"config key {key}: {exc}", EXIT_PARSE) from exc
    if not 0 <= getattr(args, "seed", 0) < 2**64:
        raise CliError(f"seed must be in [0, 2**64), got {args.seed}", EXIT_PARSE)


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
    residual = w - (factors.u_r * factors.s_r) @ factors.v_r.T
    trunc_err = fro_norm(residual)
    print(f"rows={w.shape[0]} cols={w.shape[1]} rank={factors.rank}")
    print("singular_values=" + ",".join(repr(s) for s in factors.s_r.tolist()))
    print(f"truncation_error={trunc_err!r}")
    path = svd_path(*w.shape)
    print(
        f"svd={path} iterations={factors.iterations} converged={str(factors.converged).lower()} "
        f"certificate={factors.certificate!r}"
    )
    if args.out:
        out_dir = _make_out_dir(args.out)
        for name, factor in (
            ("u_r", factors.u_r),
            ("s_r", factors.s_r[None, :]),
            ("v_r", factors.v_r),
            ("residual", residual),
        ):
            write_matrix(out_dir / f"{name}.txt", factor)
    return 0


def cmd_train(args) -> int:
    method = AdapterMethod(tag=args.method, rank=args.rank, o_init=args.o_init, trainable_set=args.trainable)
    config = TrainConfig(steps=args.steps, lr=args.lr, optimizer=args.optimizer)
    try:
        task = make_task(args.d, args.k, args.r_gap, args.seed, n=args.n)
        state = build_adapter(task.w0, method, args.seed)
        run = train(state, task, config)
    except MemoryError as exc:
        raise CliError(f"out of memory: {exc}", EXIT_PARSE) from exc

    if args.out:
        out_dir = _make_out_dir(args.out)
        _write_csv(out_dir / "loss.csv", ["step", "loss"], [[i, repr(v)] for i, v in enumerate(run.loss_trace.tolist())])
        checkpoint.save(run.final_state, out_dir / "adapter.ckpt")
    print(
        f"method={args.method} rank={args.rank} "
        f"init_loss={float(run.loss_trace[0])!r} final_loss={float(run.loss_trace[-1])!r}"
    )
    return 0


def cmd_count(args) -> int:
    if args.preset is None or args.rank is None:
        raise CliError("--preset and --rank are required", EXIT_PARSE)
    try:
        preset = get_preset(args.preset)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_RANGE) from exc
    methods = {m.strip() for m in args.method.split(",") if m.strip()}
    if not methods:
        raise CliError(f"--method {args.method!r} names no method", EXIT_PARSE)
    try:
        ranks = sorted({int(r) for r in args.rank.split(",")})
    except ValueError as exc:
        raise CliError(f"bad rank list {args.rank!r}: {exc}", EXIT_PARSE) from exc
    rows = []  # every row is counted before any is printed, so a bad method or rank prints none
    for method, r in sorted((m, r) for m in methods for r in ranks):
        rep = report(preset, method, r)
        rows.append([method, r, rep.total, rep.memory_footprint])
    for row in rows:
        print(f"{row[0]} r={row[1]} trainable={row[2]} footprint={row[3]}")
    if args.out:
        _write_csv(args.out, ["method", "rank", "trainable_params", "memory_footprint"], rows)
    return 0


def cmd_verify(args) -> int:
    results = run_scope(args.scope, seed=args.seed, inject_fault=args.inject_fault == "perturb_u")
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.name} max_err={res.max_err:.3e} threshold={res.threshold:.1e} {status}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_CHECK_FAILED if failed else 0


def _add_settings(p: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    p.add_argument("--config")
    for key, (cast, _, flag) in _SETTINGS[command].items():
        if flag is not None:
            p.add_argument("--" + key.replace("_", "-"), type=cast, **flag)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later call of `main`."""
    parser = argparse.ArgumentParser(prog="osora", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("decompose", help="truncated SVD of a matrix file")
    p.add_argument("matrix", help="path to a text matrix file")
    _add_settings(p, "decompose")
    _add_settings(sub.add_parser("train", help="train an adapter on the toy task"), "train")
    _add_settings(sub.add_parser("count", help="parameter accounting over a shape preset"), "count")
    p = _add_settings(sub.add_parser("verify", help="run the invariant check suites"), "verify")
    p.add_argument("scope", choices=SCOPES)
    p.add_argument("--inject-fault", choices=("none", "perturb_u"), default="none", help="negative control for the merge check")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _resolve_settings(args)
        if args.command == "decompose":
            return cmd_decompose(args)
        if args.command == "train":
            return cmd_train(args)
        if args.command == "count":
            return cmd_count(args)
        return cmd_verify(args)
    except (CliError, OsoraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CliError):
            return exc.code
        if isinstance(exc, RankOutOfRange):
            return EXIT_BAD_RANGE
        return EXIT_NONFINITE if isinstance(exc, NonFiniteLoss) else EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
