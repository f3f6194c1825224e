"""Command line interface: schemas, exit codes, reproducible output."""
import pytest

from molcode import cli


def run(argv):
    return cli.main(argv)


class TestCodebookCommand:
    def test_writes_all_kinds(self, tmp_path, capsys):
        out = tmp_path / "cb.csv"
        assert run(["codebook", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "codebook,symbol,codeword,probability"
        assert len(lines) == 1 + 3 * 26
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"huffman", "ita2", "proposed"}
        stats = capsys.readouterr().err
        assert "expected length" in stats and "Kraft" in stats

    def test_single_kind_selection(self, tmp_path):
        out = tmp_path / "cb.csv"
        assert run(["codebook", "--kinds", "proposed", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 27
        assert all(line.startswith("proposed,") for line in lines[1:])

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["codebook", "--out", str(a)])
        run(["codebook", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_ita2_skipped_for_custom_alphabet(self, tmp_path, capsys):
        distfile = tmp_path / "d.csv"
        distfile.write_text("symbol,prob\na,0.6\nb,0.4\n")
        cfgfile = tmp_path / "cfg.yaml"
        cfgfile.write_text(f"distribution: {distfile}\n")
        out = tmp_path / "cb.csv"
        code = run(["--config", str(cfgfile), "codebook", "--out", str(out)])
        assert code == 0
        assert "ita2 skipped" in capsys.readouterr().err
        kinds = {l.split(",")[0] for l in out.read_text().splitlines()[1:]}
        assert kinds == {"huffman", "proposed"}

    def test_unknown_kind_is_usage_error(self):
        assert run(["codebook", "--kinds", "morse"]) == 2


class TestChannelCommand:
    def test_schema_and_summary(self, tmp_path, capsys):
        out = tmp_path / "ch.csv"
        assert run(["channel", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,a_k"
        assert len(lines) == 11
        first = float(lines[1].split(",")[1])
        assert 0 < first < 0.5
        err = capsys.readouterr().err
        assert "peak time" in err and "min usable slot" in err

    def test_explicit_slot(self, tmp_path):
        out = tmp_path / "ch.csv"
        assert run(["channel", "--slot", "0.1", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        values = [float(r.split(",")[1]) for r in rows]
        assert values == sorted(values, reverse=True)

    def test_overlapping_geometry_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("channel:\n  receiver_radius: 4.0\n")
        assert run(["--config", str(cfg), "channel"]) == 2


class TestIsiCommand:
    def test_schema_with_oracle_columns(self, tmp_path):
        out = tmp_path / "isi.csv"
        code = run(["isi", "--oracle-samples", "100000", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "codebook,j,coefficient,p0,variant,oracle,oracle_stderr"
        )
        rows = [l.split(",") for l in lines[1:]]
        assert [(r[0], r[1]) for r in rows] == [
            ("huffman", "2"), ("huffman", "3"), ("proposed", "3"),
        ]
        for r in rows:
            exact, mc, se = float(r[2]), float(r[5]), float(r[6])
            assert abs(mc - exact) < 5 * se

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["isi", "--oracle-samples", "100000", "--seed", "3", "--out", str(a)])
        run(["isi", "--oracle-samples", "100000", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSimulateCommand:
    def test_schema_and_partial_results(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = run([
            "simulate", "--trials", "400", "--budgets", "0,60",
            "--kinds", "proposed", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "codebook,molecules_per_char,N_bit1,t_s,tau,cer,trials,seed,error"
        )
        zero_row = lines[1].split(",")
        assert zero_row[5] == "" and zero_row[8].startswith("uncalibratable")
        good_row = lines[2].split(",")
        assert good_row[8] == "" and 0.0 <= float(good_row[5]) <= 1.0
        err = capsys.readouterr().err
        assert "done proposed" in err

    def test_plot_stub_emitted(self, tmp_path):
        out = tmp_path / "sim.csv"
        stub = tmp_path / "plot.py"
        run([
            "simulate", "--trials", "200", "--budgets", "60",
            "--kinds", "huffman", "--plot-stub", str(stub), "--out", str(out),
        ])
        text = stub.read_text()
        assert "matplotlib" in text and "molecules per character" in text

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--trials", "300", "--budgets", "60",
                "--kinds", "proposed,huffman"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_negative_budget_rejected(self):
        assert run(["simulate", "--budgets", "-5", "--trials", "100"]) == 2

    def test_bad_thread_env_is_usage_error_without_rows(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MOLCODE_THREADS", "abc")
        out = tmp_path / "sim.csv"
        code = run(["simulate", "--trials", "100", "--budgets", "60",
                    "--kinds", "huffman", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "MOLCODE_THREADS" in capsys.readouterr().err

    def test_zero_threads_is_usage_error(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = run(["simulate", "--trials", "100", "--budgets", "60",
                    "--kinds", "huffman", "--threads", "0", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_calibration_failure_stays_a_tagged_row(self, tmp_path, monkeypatch):
        # The same zero-budget pilot failure as above, with threads taken
        # from a valid environment setting.
        monkeypatch.setenv("MOLCODE_THREADS", "2")
        out = tmp_path / "sim.csv"
        code = run(["simulate", "--trials", "100", "--budgets", "0",
                    "--kinds", "proposed", "--out", str(out)])
        assert code == 0
        (row,) = out.read_text().splitlines()[1:]
        assert row.split(",")[8].startswith("uncalibratable: no usable pilot readings")


class TestConfigHandling:
    def test_char_rate_override_changes_slot(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("link:\n  chars_per_second: 1.0\n")
        fast = tmp_path / "fast.csv"
        slow = tmp_path / "slow.csv"
        run(["channel", "--kind", "huffman", "--out", str(fast)])
        run(["--config", str(cfg), "channel", "--kind", "huffman", "--out", str(slow)])
        a_fast = float(fast.read_text().splitlines()[1].split(",")[1])
        a_slow = float(slow.read_text().splitlines()[1].split(",")[1])
        # Longer slots capture more of the arrival mass in slot one.
        assert a_slow > a_fast

    def test_duration_alternative(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("link:\n  chars_per_second: null\n  char_duration: 1.0\n")
        assert run(["--config", str(cfg), "channel"]) == 0

    def test_both_rate_and_duration_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("link:\n  chars_per_second: 2.0\n  char_duration: 0.5\n")
        assert run(["--config", str(cfg), "channel"]) == 2

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("wormholes:\n  enabled: true\n")
        assert run(["--config", str(cfg), "codebook"]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("channel:\n  speed_of_light: 3.0e8\n")
        assert run(["--config", str(cfg), "channel"]) == 2

    def test_missing_config_file(self):
        assert run(["--config", "/nonexistent/cfg.yaml", "codebook"]) == 2

    def test_missing_distribution_file(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("distribution: /nonexistent/d.csv\n")
        assert run(["--config", str(cfg), "codebook"]) == 2


class TestInternalErrorPath:
    def test_invariant_failures_exit_three(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("sentinel")

        monkeypatch.setattr(cli.mc_sim, "sweep", boom)
        assert run(["simulate", "--trials", "100", "--budgets", "60"]) == 3
