"""Command line interface: schemas, exit codes, reproducible output."""
from pathlib import Path

import pytest

from molcode import cli

README = Path(__file__).resolve().parents[1] / "README.md"


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

    def test_nan_probability_is_usage_error_without_rows(self, tmp_path, capsys):
        distfile = tmp_path / "d.csv"
        distfile.write_text("symbol,prob\na,nan\nb,0.5\n")
        cfgfile = tmp_path / "cfg.yaml"
        cfgfile.write_text(f"distribution: {distfile}\n")
        assert run(["--config", str(cfgfile), "codebook"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err


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

    @pytest.mark.parametrize("config, argv, name, value", [
        ("channel:\n  memory: 1\n", ["--slot", "nan"], "slot length", "nan"),
        ("", ["--slot", "inf"], "slot length", "inf"),
        ("channel:\n  diffusion: .nan\n", [], "diffusion", "nan"),
    ], ids=["slot-nan", "slot-inf", "diffusion-nan"])
    def test_non_finite_input_is_usage_error_without_rows(self, tmp_path, capsys,
                                                          config, argv, name, value):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(config)
        assert run(["--config", str(cfg), "channel", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name} must be positive and finite, got {value}")


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
        assert "separation" not in err

    def test_separation_summary_only_where_both_kinds_have_a_cer(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = run(["simulate", "--trials", "2000", "--budgets", "0,60",
                    "--kinds", "huffman,proposed", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "codebook,molecules_per_char,N_bit1,t_s,tau,cer,trials,seed,error"
        )
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4 and all(len(r) == 9 for r in rows)
        cer = {(r[0], r[1]): float(r[5]) for r in rows if r[5]}
        # The proposed row at budget 0 is uncalibratable: no line for 0.
        (line,) = [l for l in capsys.readouterr().err.splitlines() if "separation" in l]
        assert line.startswith(
            f"separation at 60 molecules/char: huffman cer {cer['huffman', '60.0']:.6f}, "
            f"proposed cer {cer['proposed', '60.0']:.6f}, gap +"
        )
        assert line.endswith(" combined standard errors")

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--trials", "300", "--budgets", "60",
                "--kinds", "proposed,huffman"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_pins_every_column_format(self, capsys):
        # Every column's formatting: float repr, plain ints, empty cells and
        # the error tag of an uncalibratable row.
        assert run(["simulate", "--trials", "500", "--seed", "7", "--budgets", "0,85",
                    "--threads", "2"]) == 0
        assert capsys.readouterr().out == (
            "codebook,molecules_per_char,N_bit1,t_s,tau,cer,trials,seed,error\n"
            "huffman,0.0,0,0.11699229489516336,0.05,0.9192,500,7,\n"
            "huffman,85.0,43,0.11699229489516336,8.290075579381696,0.0894,500,7,\n"
            "proposed,0.0,0,0.08001134559746015,,,500,7,"
            "uncalibratable: no usable pilot readings for the signal level\n"
            "proposed,85.0,43,0.08001134559746015,5.295856553211951,0.0542,500,7,\n"
            "ita2,0.0,0,0.10000000000000003,0.05,1.0,500,7,\n"
            "ita2,85.0,34,0.10000000000000003,6.280629455745135,0.2002,500,7,\n"
        )

    def test_pins_the_reference_csv(self, capsys):
        # Every row runs several main chunks, split over two threads.
        assert run(["simulate", "--trials", "20000", "--seed", "7", "--budgets", "50,85,120",
                    "--threads", "2"]) == 0
        assert capsys.readouterr().out == (
            "codebook,molecules_per_char,N_bit1,t_s,tau,cer,trials,seed,error\n"
            "huffman,50.0,25,0.11699229489516336,4.016509486134542,0.26073,20000,7,\n"
            "huffman,85.0,43,0.11699229489516336,8.290075579381696,0.095595,20000,7,\n"
            "huffman,120.0,61,0.11699229489516336,11.76033977540194,0.038045,20000,7,\n"
            "proposed,50.0,25,0.08001134559746015,3.431061910087172,0.23698,20000,7,\n"
            "proposed,85.0,43,0.08001134559746015,5.295856553211951,0.059275,20000,7,\n"
            "proposed,120.0,61,0.08001134559746015,7.213543821762655,0.021295,20000,7,\n"
            "ita2,50.0,20,0.10000000000000003,3.0787399292868307,0.401585,20000,7,\n"
            "ita2,85.0,34,0.10000000000000003,6.280629455745135,0.21261,20000,7,\n"
            "ita2,120.0,49,0.10000000000000003,9.051495392103284,0.10678,20000,7,\n"
        )

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_zero_budget_is_written_as_zero(self, tmp_path, capsys, source):
        argv = ["simulate", "--trials", "10", "--kinds", "huffman"]
        if source == "flag":
            argv.append("--budgets=-0.0,50")
        else:
            cfg = tmp_path / "cfg.yaml"
            cfg.write_text("simulate:\n  budgets: [-0.0, 50]\n")
            argv = ["--config", str(cfg), *argv]
        assert run(argv) == 0
        captured = capsys.readouterr()
        rows = captured.out.splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [["huffman", "0.0"], ["huffman", "50.0"]]
        assert "-0" not in captured.out
        assert "at 0 molecules/char" in captured.err and "-0" not in captured.err

    def test_negative_budget_rejected(self):
        assert run(["simulate", "--budgets", "-5", "--trials", "100"]) == 2

    @pytest.mark.parametrize("budget", ["inf", "nan"])
    def test_non_finite_budget_is_usage_error_without_rows(self, capsys, budget):
        code = run(["simulate", "--trials", "100", "--budgets", budget,
                    "--kinds", "huffman"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"got {budget}" in captured.err and "done " not in captured.err

    @pytest.mark.parametrize("argv, message", [
        ("simulate --trials 100 --kinds proposed,proposed --budgets 60",
         "'proposed' is given twice"),
        ("simulate --trials 100 --kinds proposed --budgets 60,60", "repeated budgets: 60.0"),
        ("simulate --trials 100 --kinds , --budgets 60", "no codebook kinds given"),
        ("simulate --trials 100 --kinds proposed --budgets ,", "no budgets given"),
        ("codebook --kinds ,", "no codebook kinds given"),
    ], ids=["kind", "budget", "no-kinds", "no-budgets", "codebook-no-kinds"])
    def test_repeats_are_usage_errors_without_rows(self, tmp_path, capsys, argv, message):
        out = tmp_path / "sim.csv"
        code = run([*argv.split(), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert message in err and "done " not in err

    def test_zero_threads_is_usage_error(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = run(["simulate", "--trials", "100", "--budgets", "60",
                    "--kinds", "huffman", "--threads", "0", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_calibration_failure_stays_a_tagged_row(self, tmp_path):
        # The same zero-budget pilot failure as above, on two threads.
        out = tmp_path / "sim.csv"
        code = run(["simulate", "--trials", "100", "--budgets", "0",
                    "--kinds", "proposed", "--threads", "2", "--out", str(out)])
        assert code == 0
        (row,) = out.read_text().splitlines()[1:]
        assert row.split(",")[8].startswith("uncalibratable: no usable pilot readings")


def _documented_headers() -> dict[str, str]:
    """Subcommand -> the CSV header the README's command line block shows."""
    block = README.read_text().split("## Command line", 1)[1].split("```sh", 1)[1]
    headers, command = {}, None
    for line in block.split("```", 1)[0].splitlines():
        if line.startswith("molcode "):
            command = line.split()[1]
        elif line.startswith("# ") and command is not None:
            headers[command] = line[2:].split()[0]
    return headers


#: Each subcommand at a size that runs in well under a second.
_TINY_ARGS = {
    "codebook": [],
    "channel": [],
    "isi": ["--oracle-samples", "100000"],
    "simulate": ["--trials", "50", "--budgets", "85", "--kinds", "huffman", "--threads", "1"],
}


class TestReadmeHeaders:
    def test_every_subcommand_is_documented(self):
        assert _documented_headers().keys() == _TINY_ARGS.keys()

    @pytest.mark.parametrize("command", sorted(_TINY_ARGS))
    def test_first_output_line_is_the_documented_header(self, command, capsys):
        assert run([command, *_TINY_ARGS[command]]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == _documented_headers()[command]


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

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("wormholes:\n  enabled: true\n")
        assert run(["--config", str(cfg), "codebook"]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        # The character rate has one spelling, link.chars_per_second.
        cfg = tmp_path / "cfg.yaml"
        for text in ("channel:\n  speed_of_light: 3.0e8\n", "link:\n  char_duration: 0.5\n"):
            cfg.write_text(text)
            assert run(["--config", str(cfg), "channel"]) == 2, text

    def test_missing_config_file(self):
        assert run(["--config", "/nonexistent/cfg.yaml", "codebook"]) == 2

    def test_missing_distribution_file(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("distribution: /nonexistent/d.csv\n")
        assert run(["--config", str(cfg), "codebook"]) == 2

    @pytest.mark.parametrize("text", [
        "simulate:\n  trials: null\n",
        "simulate:\n  budgets: 5\n",
        "simulate:\n  kinds: 5\n",
        "simulate:\n  budgets: []\n",
        "simulate:\n  kinds: []\n",
        "channel:\n  memory: [3]\n",
        "link:\n  chars_per_second: null\n",
        "link:\n  chars_per_second: 0\n",
        "distribution: {dist}\n",
    ], ids=["trials-null", "budgets-number", "kinds-number", "budgets-empty", "kinds-empty",
            "memory-list", "rate-null", "rate-zero", "prob-missing"])
    def test_value_mistakes_are_usage_errors(self, tmp_path, capsys, text):
        dist = tmp_path / "d.csv"
        dist.write_text("symbol,prob\na,0.6\nb\n")  # b has no probability cell
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text.format(dist=dist))
        out = tmp_path / "sim.csv"
        assert run(["--config", str(cfg), "simulate", "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")


class TestInternalErrorPath:
    def test_invariant_failures_exit_three(self, monkeypatch):
        # Internal TypeErrors and KeyErrors are bugs, not usage errors.
        for error in (RuntimeError, TypeError, KeyError):
            def boom(*args, **kwargs):
                raise error("sentinel")

            monkeypatch.setattr(cli.mc_sim, "sweep", boom)
            assert run(["simulate", "--trials", "100", "--budgets", "60"]) == 3, error
