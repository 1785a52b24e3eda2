import csv
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from osora import IoFailure, jacobi_svd, random_matrix, svd_truncated
from osora.cli import build_parser, main, read_matrix, write_matrix

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(line):
    return dict(item.split("=", 1) for item in line.split())


class TestMatrixIo:
    def test_roundtrip(self, tmp_path):
        w = random_matrix(5, 3, 1, "gaussian")
        path = tmp_path / "m.txt"
        write_matrix(path, w)
        assert np.array_equal(read_matrix(path), w)

    def test_unwritable_path_is_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            write_matrix(tmp_path / "missing" / "m.txt", np.eye(2))

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1.0 2.0 3.0\n")
        with pytest.raises(Exception):
            read_matrix(path)


class TestDecompose:
    def test_forced_diagonal(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        write_matrix(path, np.diag([3.0, 1.0]))
        code, out, _ = run_cli(capsys, "decompose", str(path), "--rank", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert parse_kv(lines[0]) == {"rows": "2", "cols": "2", "rank": "1"}
        assert lines[1] == "singular_values=3.0"
        assert float(lines[2].split("=")[1]) == 1.0
        assert parse_kv(lines[3]) == {"svd": "jacobi", "iterations": "1", "converged": "true", "certificate": "0.0"}

    @staticmethod
    def decompose_path_line(tmp_path, capsys, w, rank):
        path = tmp_path / "m.txt"
        write_matrix(path, w)
        code, out, _ = run_cli(capsys, "decompose", str(path), "--rank", str(rank))
        assert code == 0
        lines = out.strip().splitlines()
        s = [float(x) for x in lines[1].split("=")[1].split(",")]
        assert np.abs(np.array(s) - np.linalg.svd(w, compute_uv=False)[:rank]).max() <= 1e-12 * s[0]
        kv = parse_kv(lines[3])
        assert kv["converged"] == "true" and float(kv["certificate"]) <= 1e-12
        return kv

    def test_top_r_shape_reports_its_path(self, tmp_path, capsys):
        kv = self.decompose_path_line(tmp_path, capsys, random_matrix(256, 272, 78, "gaussian"), 3)
        assert kv["svd"] == "top_r" and int(kv["iterations"]) > 0

    def test_lapack_shape_reports_its_path(self, tmp_path, capsys):
        kv = self.decompose_path_line(tmp_path, capsys, random_matrix(128, 136, 78, "gaussian"), 3)
        assert kv["svd"] == "lapack" and kv["iterations"] == "0"

    def test_identity_full_rank_error_tiny(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        write_matrix(path, np.eye(4))
        code, out, _ = run_cli(capsys, "decompose", str(path), "--rank", "4")
        assert code == 0
        assert float(out.strip().splitlines()[2].split("=")[1]) <= 1e-12

    def test_truncation_error_matches_tail_spectrum(self, tmp_path, capsys):
        # Eckart-Young: truncation error equals the l2 norm of the dropped tail
        w = random_matrix(64, 48, 77, "gaussian")
        path = tmp_path / "m.txt"
        write_matrix(path, w)
        code, out, _ = run_cli(capsys, "decompose", str(path), "--rank", "8", "--out", str(tmp_path / "f"))
        assert code == 0
        reported = float(out.strip().splitlines()[2].split("=")[1])
        _, s, _ = jacobi_svd(w)
        tail = float(np.sqrt((s[8:] ** 2).sum()))
        assert abs(reported - tail) <= 1e-9 * (1.0 + tail)
        assert read_matrix(tmp_path / "f" / "u_r.txt").shape == (64, 8)
        assert read_matrix(tmp_path / "f" / "s_r.txt").shape == (1, 8)

    @pytest.mark.parametrize("scale", [1e-170, 1e-300])
    def test_truncation_error_of_tiny_weights(self, scale, tmp_path, capsys):
        # The residual's squares underflow here; squared unscaled they printed 0.0.
        w = random_matrix(12, 8, 3, "gaussian") * scale
        path = tmp_path / "m.txt"
        write_matrix(path, w)
        code, out, _ = run_cli(capsys, "decompose", str(path), "--rank", "4")
        assert code == 0
        reported = float(out.strip().splitlines()[2].split("=")[1])
        s = np.linalg.svd(w, compute_uv=False)
        tail = scale * float(np.sqrt(((s[4:] / scale) ** 2).sum()))
        assert abs(reported - tail) <= 1e-12 * tail

    @pytest.mark.parametrize(
        "d,k,r",
        [(10, 6, 3), (6, 10, 3), (128, 160, 4), (256, 288, 4)],
        ids=["jacobi", "jacobi_wide", "lapack", "top_r"],
    )
    def test_out_dir_factors_read_back_bit_for_bit(self, d, k, r, tmp_path, capsys):
        w = random_matrix(d, k, 79, "gaussian")
        path, out_dir = tmp_path / "m.txt", tmp_path / "nested" / "factors"
        write_matrix(path, w)
        code, out, _ = run_cli(capsys, "decompose", str(path), "--rank", str(r), "--out", str(out_dir))
        assert code == 0
        f = svd_truncated(w, r)
        want = {"u_r": f.u_r, "s_r": f.s_r[None, :], "v_r": f.v_r, "residual": f.residual}
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(f"{name}.txt" for name in want)
        for name, factor in want.items():
            got = read_matrix(out_dir / f"{name}.txt")
            assert got.shape == factor.shape and got.tobytes() == factor.tobytes(), name

    def test_unwritable_out_dir_exit_code(self, tmp_path, capsys):
        path, blocker = tmp_path / "m.txt", tmp_path / "plain_file"
        write_matrix(path, np.eye(2))
        blocker.write_text("not a directory\n")
        for out in (blocker / "factors", blocker):
            code, _, err = run_cli(capsys, "decompose", str(path), "--rank", "1", "--out", str(out))
            assert code == 3 and err.startswith("error: cannot create") and "Traceback" not in err

    def test_exact_low_rank_matrix(self, tmp_path, capsys):
        # rank-3 product asked for 5 factors: the two extra singular values are zero
        w = random_matrix(10, 3, 1, "gaussian") @ random_matrix(3, 9, 2, "gaussian")
        path = tmp_path / "m.txt"
        write_matrix(path, w)
        code, out, _ = run_cli(capsys, "decompose", str(path), "--rank", "5")
        assert code == 0
        lines = out.strip().splitlines()
        s = [float(x) for x in lines[1].split("=")[1].split(",")]
        assert len(s) == 5 and s[2] > 0.0 and s[3:] == [0.0, 0.0]
        assert float(lines[2].split("=")[1]) <= 1e-12

    def test_rank_out_of_range_exit_code(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        write_matrix(path, np.eye(2))
        code, _, err = run_cli(capsys, "decompose", str(path), "--rank", "5")
        assert code == 2 and "rank" in err

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("not a matrix\n")
        code, _, _ = run_cli(capsys, "decompose", str(path), "--rank", "1")
        assert code == 3

    def test_non_utf8_matrix_exit_code(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_bytes(b"\xff2 2\n1.0 0.0\n0.0 1.0\n")
        code, out, err = run_cli(capsys, "decompose", str(path), "--rank", "1")
        assert code == 3 and out == "" and err.startswith("error: cannot read matrix file")


class TestTrain:
    def test_zero_lr_keeps_first_and_last_equal(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(
            capsys, "train", "--steps", "10", "--lr", "0", "--optimizer", "sgd", "--out", str(out_dir)
        )
        assert code == 0
        rows = list(csv.DictReader(open(out_dir / "loss.csv")))
        assert rows[0]["loss"] == rows[-1]["loss"]

    def test_standard_run_converges_and_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code, out, _ = run_cli(capsys, "train", "--out", str(out_dir))
        assert code == 0
        summary = parse_kv(out.strip().splitlines()[-1])
        assert summary["method"] == "osora"
        assert float(summary["final_loss"]) <= 1e-2 * float(summary["init_loss"])
        assert (out_dir / "adapter.ckpt").exists()

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        blobs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code, _, _ = run_cli(capsys, "train", "--steps", "40", "--seed", "3", "--out", str(out_dir))
            assert code == 0
            blobs.append((out_dir / "loss.csv").read_bytes() + (out_dir / "adapter.ckpt").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.pinned
    def test_standard_run_bytes_are_pinned(self, tmp_path, capsys):
        # SHA-256 of the 200-step standard run; any change to the build, the
        # SVD, the trainer or the checkpoint layout moves these. They hold only
        # where they were recorded: numpy 2.4.6 with its bundled OpenBLAS 0.3.31,
        # Python 3.11, x86-64. Another numpy or BLAS build may sum in another
        # order and move them while the code is correct; re-record them there.
        # test_rerun_is_byte_identical checks run-to-run equality anywhere.
        out_dir = tmp_path / "run"
        code, _, _ = run_cli(capsys, "train", "--steps", "200", "--out", str(out_dir))
        assert code == 0
        digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in ("loss.csv", "adapter.ckpt")}
        assert digests == {
            "loss.csv": "855e2e23481aaf046cf15da106f549e30d8274612bb3e8263a9ea9c775bc7885",
            "adapter.ckpt": "7549f2d21e0e0b54705e7e2ad71276a65aecada13504c245ecfab01e230e86e3",
        }

    @pytest.mark.parametrize(
        "argv", [["--steps", "-1"], ["--lr", "nan"], ["--seed", "-1"]], ids=["negative_steps", "nan_lr", "negative_seed"]
    )
    def test_bad_setting_exit_code(self, argv, capsys):
        code, _, err = run_cli(capsys, "train", *argv)
        assert code == 3 and err.startswith("error:")

    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _, err = run_cli(capsys, "train", "--steps", "2", "--out", str(blocker / "run"))
        assert code == 3 and err.startswith("error:")

    def test_nonfinite_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "train", "--steps", "300", "--lr", "1e9", "--optimizer", "sgd")
        assert code == 4 and "non-finite" in err

    def test_ablation_flags_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "train", "--steps", "5", "--trainable", "only_o", "--o-init", "gaussian")
        assert code == 0 and "method=osora" in out


class TestCount:
    def test_published_rows_in_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "c.csv"
        code, _, _ = run_cli(
            capsys,
            "count",
            "--preset", "mistral7b_v03",
            "--method", "osora,dora",
            "--rank", "16,512",
            "--out", str(out_csv),
        )
        assert code == 0
        rows = list(csv.DictReader(open(out_csv)))
        table = {(r["method"], r["rank"]): r["trainable_params"] for r in rows}
        assert table[("osora", "512")] == "196608"
        assert table[("dora", "16")] == "6979584"
        assert [r["method"] for r in rows] == sorted(r["method"] for r in rows)

    def test_qwen_closed_form_row(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--preset", "qwen2_7b", "--method", "osora", "--rank", "64")
        assert code == 0 and "trainable=118272" in out

    def test_unknown_preset_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "count", "--preset", "missing", "--rank", "4")
        assert code == 2 and "unknown preset" in err

    def test_bad_rank_list_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "count", "--preset", "qwen2_7b", "--rank", "16,banana")
        assert code == 3

    def test_unknown_method_exit_code(self, tmp_path, capsys):
        # The bad tag comes after a good one: no row is printed or written.
        table = tmp_path / "t.csv"
        argv = ["count", "--preset", "qwen2_7b", "--rank", "4", "--method", "osora,bogus", "--out", str(table)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == "" and "unknown method" in err
        assert not table.exists()

    def test_repeated_method_rows_sorted_by_method_then_rank(self, capsys):
        argv = ["count", "--preset", "qwen2_7b", "--method", "osora,lora,osora", "--rank", "8,1"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        rows = [line.split()[:2] for line in out.splitlines()]
        assert rows == [["lora", "r=1"], ["lora", "r=8"]] + [["osora", "r=1"]] * 2 + [["osora", "r=8"]] * 2

    @pytest.mark.parametrize("ranks", ["0", "4,-1", "4,513"])
    def test_rank_out_of_range_exit_code(self, ranks, capsys):
        # 513 exceeds min(d, k) = 512 of qwen2_7b's 512x3584 target, a bound of the SVD-initialised methods.
        code, out, err = run_cli(capsys, "count", "--preset", "qwen2_7b", "--rank", ranks)
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.pinned
    @pytest.mark.parametrize(
        "preset,digest",
        [
            ("llama3_8b", "df8c2468658d969dbc0d4cd4550ac416efad00d45732d55c58828a75939b4c5c"),
            ("mistral7b_v03", "df8c2468658d969dbc0d4cd4550ac416efad00d45732d55c58828a75939b4c5c"),
            ("qwen2_7b", "481ac457558aa8b84906a73ff866b62a2f85f920e31a438280c535d431fd8504"),
        ],
    )
    def test_csv_bytes_are_pinned(self, preset, digest, tmp_path, capsys):
        # SHA-256 of the count CSV over every method at ranks 1, 8, 64 and 512.
        # The CSV holds integers only, so unlike the train pin it does not
        # depend on the numpy or BLAS build.
        out_csv = tmp_path / "c.csv"
        code, _, _ = run_cli(capsys, "count", "--preset", preset, "--rank", "1,8,64,512", "--out", str(out_csv))
        assert code == 0
        assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == digest

    def test_empty_method_list_exit_code(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        argv = ["count", "--preset", "qwen2_7b", "--rank", "4", "--method", " , ", "--out", str(table)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == "" and err.startswith("error:")
        assert not table.exists()

    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, _, err = run_cli(capsys, "count", "--preset", "qwen2_7b", "--rank", "8", "--out", str(blocker / "c.csv"))
        assert code == 3 and err.startswith("error:")


class TestVerify:
    def test_all_scope_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all")
        assert code == 0
        assert "FAIL" not in out and "grad.analytic_vs_fd" in out

    def test_injected_fault_fails_merge_check(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "merge", "--inject-fault", "perturb_u")
        assert code == 1
        assert any("merge.equivalence" in line and "FAIL" in line for line in out.splitlines())

    @pytest.mark.parametrize("scope,seed", [("svd", "-1"), ("persist", str(2**64))], ids=["negative", "past_u64"])
    def test_bad_seed_exit_code(self, scope, seed, capsys):
        code, _, err = run_cli(capsys, "verify", scope, "--seed", seed)
        assert code == 3 and err.startswith("error:")

    @pytest.mark.pinned
    @pytest.mark.parametrize(
        "seed,digest",
        [
            ("0", "82198e4bb64137e6044dfb1986d11cb400523302d4885c8d80c5b8618929cb74"),
            ("1", "51cfaf38fa51511fb836bd6482687d7a47cf019c4e832a43eda1e44f681d3f32"),
        ],
        ids=["seed0", "seed1"],
    )
    def test_all_scope_stdout_is_pinned(self, seed, digest, capsys):
        # SHA-256 of the printed rows; any change to a check's instances, probes
        # or error formula moves these. The printed max_err values hold only
        # where they were recorded: numpy 2.4.6 with its bundled OpenBLAS 0.3.31,
        # Python 3.11, x86-64. Another numpy or BLAS build may sum in another
        # order and move them while the code is correct; re-record them there.
        code, out, _ = run_cli(capsys, "verify", "all", "--seed", seed)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_grad_scope_reports_max_error(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "grad")
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("grad.analytic_vs_fd"))
        max_err = float(line.split("max_err=")[1].split()[0])
        assert max_err <= 1e-6


class TestConfigFile:
    def test_file_values_used_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[train]\nsteps = 7\nlr = 0.0\noptimizer = sgd\nseed = 9\n")
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(capsys, "train", "--config", str(cfg), "--out", str(out_dir))
        assert code == 0
        rows = list(csv.DictReader(open(out_dir / "loss.csv")))
        assert len(rows) == 8  # steps from file
        code, out, _ = run_cli(capsys, "train", "--config", str(cfg), "--steps", "2")
        assert code == 0  # flag wins; no output dir needed

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[train]\nwarmup = 5\n")
        code, _, err = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 3 and "unknown keys" in err

    def test_unknown_optimizer_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[train]\noptimizer = bogus\n")
        code, _, err = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 3 and "bogus" in err

    def test_probe_count_too_large_for_memory(self, tmp_path, capsys):
        # 32 x 1e11 probes is about 23 TiB, which numpy refuses in one request
        # rather than leaving it to the OS to overcommit.
        cfg = tmp_path / "run.ini"
        cfg.write_text("[train]\nn = 100000000000\n")
        code, _, err = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 3 and err.startswith("error:")

    @pytest.mark.parametrize("extra", ["", "[count]\nrank = 4\n"], ids=["alone", "beside_count"])
    def test_default_section_rejected(self, extra, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[DEFAULT]\nwarmup = 5\n" + extra)
        code, _, err = run_cli(capsys, "train", "--config", str(cfg), "--steps", "1")
        assert code == 3 and "[DEFAULT]" in err

    def test_empty_default_section_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[DEFAULT]\n[train]\nsteps = 1\n")
        code, _, _ = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [["decompose", "m.txt", "--rank", "1"], ["train", "--steps", "1"], ["count"], ["verify", "svd"]],
        ids=["decompose", "train", "count", "verify"],
    )
    def test_non_utf8_config_exit_code(self, argv, tmp_path, capsys):
        # The config is read before any command runs, so decompose never opens m.txt.
        cfg = tmp_path / "run.ini"
        cfg.write_bytes(b"\xff[train]\nsteps = 1\n")
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 3 and out == "" and err.startswith("error: cannot parse config")

    @pytest.mark.parametrize("key", ["d", "k"])
    def test_empty_task_dimension_is_a_config_failure(self, key, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[train]\n{key} = 0\n")
        code, out, err = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 3 and out == "" and "must be >= 1" in err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[evaluate]\nsteps = 5\n")
        code, _, _ = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 3

    def test_decompose_reads_its_section_and_flags_override(self, tmp_path, capsys):
        matrix, out_dir = tmp_path / "m.txt", tmp_path / "factors"
        write_matrix(matrix, np.diag([3.0, 2.0, 1.0]))
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[decompose]\nrank = 2\nout = {out_dir}\n")
        code, out, _ = run_cli(capsys, "decompose", str(matrix), "--config", str(cfg))
        assert code == 0 and out.splitlines()[1] == "singular_values=3.0,2.0"
        assert read_matrix(out_dir / "s_r.txt").tolist() == [[3.0, 2.0]]
        code, out, _ = run_cli(capsys, "decompose", str(matrix), "--config", str(cfg), "--rank", "1")
        assert code == 0 and out.splitlines()[1] == "singular_values=3.0"


# Runs main as the first call in a fresh process, exiting with its return code.
FRESH_MAIN = "import sys; from osora.cli import main; sys.exit(main(sys.argv[1:]))"


def test_one_parser_serves_many_calls(tmp_path, capsys, monkeypatch):
    # Each call prints and returns what it does as a fresh process's first call:
    # an argparse failure, --help and a CliError leave nothing behind for the next.
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    matrix = tmp_path / "m.txt"
    write_matrix(matrix, np.diag([3.0, 2.0, 1.0]))
    calls = [
        (["train", "--steps", "many"], 2),
        (["--help"], 0),
        (["decompose", str(tmp_path / "missing.txt"), "--rank", "1"], 3),
        (["count", "--preset", "qwen2_7b", "--rank", "4,8"], 0),
        (["verify", "svd"], 0),
        (["decompose", str(matrix), "--rank", "2"], 0),
    ]
    env = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"}
    build_parser.cache_clear()
    for argv, want_code in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-c", FRESH_MAIN, *argv], capture_output=True, text=True, env=env, cwd=tmp_path
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert code == want_code and (out or err), argv
    assert build_parser.cache_info().misses == 1


def test_standard_run_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # The probe QR and every step's products go through LAPACK and BLAS: the
    # standard run writes the same loss.csv and adapter.ckpt at one and at two
    # OpenBLAS threads. Larger thread counts are not checked here.
    blobs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"threads{threads}"
        env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run(
            [sys.executable, "-c", FRESH_MAIN, "train", "--out", str(out_dir)], capture_output=True, env=env
        )
        assert done.returncode == 0, done.stderr
        blobs.append([(out_dir / name).read_bytes() for name in ("loss.csv", "adapter.ckpt")])
    assert blobs[0] == blobs[1]
