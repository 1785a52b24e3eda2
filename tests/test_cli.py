import csv
import hashlib

import numpy as np
import pytest

from osora import jacobi_svd, random_matrix
from osora.checkpoint import load_snapshot
from osora.cli import main, read_matrix, write_matrix


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
        code, out, _ = run_cli(capsys, "decompose", str(path), "--rank", "8", "--out", str(tmp_path / "f.snap"))
        assert code == 0
        reported = float(out.strip().splitlines()[2].split("=")[1])
        _, s, _ = jacobi_svd(w)
        tail = float(np.sqrt((s[8:] ** 2).sum()))
        assert abs(reported - tail) <= 1e-9 * (1.0 + tail)
        meta, arrays = load_snapshot(tmp_path / "f.snap")
        assert meta["rank"] == 8 and arrays["u_r"].shape == (64, 8)

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
            "loss.csv": "4ce5726ed29309a72cd36f499ae0e57b776ab403a10b1d325b5271dcb22526b8",
            "adapter.ckpt": "da391c624676fc2c8dff304be8366c0689169ff0f29b395e96f8de9414e046df",
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
        with np.errstate(all="ignore"):
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

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[evaluate]\nsteps = 5\n")
        code, _, _ = run_cli(capsys, "train", "--config", str(cfg))
        assert code == 3
