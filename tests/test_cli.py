"""End-to-end tests of the command-line interface: exit codes, report
determinism, config handling, and file outputs."""

import argparse
import contextlib
import csv
import io
import json
import math
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from fracheat import cli, pde_solver, special_functions
from fracheat.pde_solver import read_field

# one small invocation of each of the nine commands; REPORT stands for a
# report file made first (see `in_workdir`)
COMMANDS = [
    ["eval-ml", "--alpha", "0.5", "--x", "1.0"],
    ["eval-wright", "--alpha", "0.5", "--s", "2.0"],
    ["verify-subordination", "--alpha", "0.5"],
    ["verify-moments", "--alpha", "0.5"],
    ["verify-special"],
    ["decay-sup", "--alpha", "0.5", "--lambda", "1.0"],
    ["decay-compare", "--alpha", "0.5", "--lambda", "1.0"],
    ["solve", "--alpha", "0.5", "--t", "1.0", "--N", "256"],
    ["report", "REPORT"],
]


def run(argv):
    return cli.main(argv)


def in_workdir(argv, tmp_path):
    """(argv, work): argv with a report made for REPORT, and every file it
    writes directed into the fresh directory work."""
    if argv == ["report", "REPORT"]:
        argv = ["report", str(tmp_path / "a.json")]
        assert run(["eval-ml", "--alpha", "0.5", "--x", "1.0", "--out", argv[1]]) == 0
    work = tmp_path / "work"
    work.mkdir()
    argv = [*argv, "--out", str(work / "out.json")]
    if argv[0] == "solve":
        argv += ["--field-out", str(work / "field.bin")]
    return argv, work


class TestStdout:
    @pytest.mark.parametrize("argv", COMMANDS[:-1], ids=[argv[0] for argv in COMMANDS[:-1]])
    def test_stdout_carries_only_the_report(self, capsys, argv):
        # without --out the report is all of stdout: valid JSON, or CSV
        # whose first line is the header
        assert run(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert run([*argv, "--format", "csv"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == ",".join(sorted({key for rec in doc["records"] for key in rec}))


class TestEval:
    def test_eval_ml_writes_json_report(self, tmp_path, capsys):
        out = tmp_path / "ml.json"
        assert run(["eval-ml", "--alpha", "0.5", "--x", "1.0",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        (rec,) = doc["records"]
        assert rec["value"] == pytest.approx(0.42758357615580700441, rel=1e-12)
        assert rec["method"]

    def test_eval_wright_value(self, tmp_path):
        out = tmp_path / "w.json"
        assert run(["eval-wright", "--alpha", "0.5", "--s", "2.0",
                    "--out", str(out)]) == 0
        (rec,) = json.loads(out.read_text())["records"]
        assert rec["value"] == pytest.approx(0.20755374871029735167, rel=1e-11)

    def test_eval_wright_refused_node_exit_code(self, monkeypatch, capsys):
        # a node the contour declines is refused, not summed another way
        monkeypatch.setattr(special_functions, "_wright_contour",
                            lambda alpha, s: np.full(s.shape, np.nan))
        assert run(["eval-wright", "--alpha", "0.5", "--s", "2.0"]) == 3
        assert "error code=3 type=UnreliableEvaluationError" in capsys.readouterr().err

    def test_bad_alpha_is_validation_error(self, capsys):
        assert run(["eval-ml", "--alpha", "2.0", "--x", "1.0"]) == 2
        assert "error code=2" in capsys.readouterr().err

    def test_negative_x_is_validation_error(self):
        for x in ("-1.0", "nan", "inf"):
            assert run(["eval-ml", "--alpha", "0.5", "--x", x]) == 2
            assert run(["eval-wright", "--alpha", "0.5", "--s", x]) == 2

    def test_usage_error_exit_code(self):
        assert run(["eval-ml", "--alpha", "0.5"]) == 2  # missing --x


class TestVerifyCommands:
    def test_verify_subordination_passes(self, tmp_path):
        out = tmp_path / "sub.json"
        assert run(["verify-subordination", "--alpha", "0.5",
                    "--out", str(out)]) == 0
        recs = json.loads(out.read_text())["records"]
        assert all(r["worst_abs_error"] <= 1e-8 for r in recs)
        assert all(r["method"] == "quadrature-vs-reference" for r in recs)

    def test_verify_moments_passes(self, tmp_path):
        out = tmp_path / "mom.json"
        assert run(["verify-moments", "--alpha", "0.5", "--out", str(out)]) == 0
        recs = json.loads(out.read_text())["records"]
        assert len(recs) == 6
        assert all(r["relative_error"] <= 1e-6 for r in recs)
        assert all(r["method"] == "quadrature" for r in recs)

    @pytest.mark.parametrize("fault, code", [(3.2e-10, 3), (1e-13, 0)])
    def test_verify_moments_tolerance(self, fault, code, monkeypatch, capsys):
        # 1e-11 relative: a fault of 3.2e-10 (the [1, cut] tables' at alpha
        # 0.9995, past the cap) exits 3; the worst gap is 1.35e-13 (40 alpha
        # in [0.02, 0.995]), so one of 1e-13 on top of it passes
        original = cli.subordination.wright_moments
        monkeypatch.setattr(cli.subordination, "wright_moments",
                            lambda a, gammas: [v * (1.0 + fault) for v in original(a, gammas)])
        assert run(["verify-moments", "--alpha", "0.5"]) == code
        assert ("moment identity error" in capsys.readouterr().err) == (code == 3)

    def test_verify_special_passes(self, tmp_path):
        out = tmp_path / "sp.json"
        assert run(["verify-special", "--out", str(out)]) == 0
        recs = json.loads(out.read_text())["records"]
        assert {r["check"] for r in recs} == {
            "alpha-1-exponential-reduction",
            "contour-vs-reference-agreement",
            "wright-half-gaussian-identity",
        }
        assert all(r["passed"] for r in recs)

    def test_verify_moments_quality_failure(self, monkeypatch, capsys):
        original = cli.subordination.wright_moments
        monkeypatch.setattr(cli.subordination, "wright_moments",
                            lambda a, gammas: [v * (1.0 + 1e-5) for v in original(a, gammas)])
        assert run(["verify-moments", "--alpha", "0.5"]) == 3
        assert "error code=3 type=QualityFailure" in capsys.readouterr().err

    def test_verify_special_quality_failure(self, monkeypatch, capsys):
        original = cli._wright_m_array
        monkeypatch.setattr(cli, "_wright_m_array", lambda a, s: original(a, s) + 1e-9)
        assert run(["verify-special"]) == 3
        assert "wright-half-gaussian-identity: " in capsys.readouterr().err

    def test_quality_failure_exit_code(self, monkeypatch, capsys):
        # force the identity check to miss its tolerance
        original = cli.subordination.subordinate_scalar
        monkeypatch.setattr(cli.subordination, "subordinate_scalar",
                            lambda a, x: original(a, x) + 1e-6)
        assert run(["verify-subordination", "--alpha", "0.5"]) == 3
        assert "error code=3" in capsys.readouterr().err


GOLDEN = json.loads((Path(__file__).parent / "cli_usage_golden.json").read_text())


def captured(argv):
    """(exit code, stdout, stderr) of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


class TestParser:
    """A command names its one subparser: only that one is built, and every
    help and usage text stays what the nine-subparser parser printed."""

    @pytest.fixture
    def built(self, monkeypatch):
        names, add_parser = [], argparse._SubParsersAction.add_parser

        def spy(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
        return names

    def test_a_command_builds_its_subparser_alone(self, built, tmp_path):
        assert run(["verify-moments", "--alpha", "0.5", "--out", str(tmp_path / "m.json")]) == 0
        assert built == ["verify-moments"]

    @pytest.mark.parametrize("argv", [["--help"], [], ["bogus"], ["-h", "verify-moments"]])
    def test_help_and_unknown_commands_build_all_nine(self, built, argv):
        captured(argv)
        assert built == [argv[0] for argv in COMMANDS]

    @pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: " ".join(c["argv"]) or "none")
    def test_texts_match_the_nine_subparser_parser(self, case, monkeypatch):
        # the same invocation with all nine subparsers built, in this
        # interpreter's argparse
        monkeypatch.setenv("COLUMNS", "80")
        got = captured(case["argv"])
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: build())
        assert got == captured(case["argv"])

    @pytest.mark.skipif("%d.%d" % sys.version_info[:2] != GOLDEN["python"],
                        reason="argparse's texts differ between Python versions")
    @pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: " ".join(c["argv"]) or "none")
    def test_texts_match_the_recorded_ones(self, case, monkeypatch):
        # recorded from the parser that built all nine subparsers for every
        # invocation, 80 columns wide
        monkeypatch.setenv("COLUMNS", str(GOLDEN["columns"]))
        assert captured(case["argv"]) == (case["exit"], case["stdout"], case["stderr"])


class TestPrecision:
    """FRAC_HEAT_PRECISION is read once, before any command runs: unset or
    standard, every value is a double; anything else, the retired extended
    included, is refused."""

    @pytest.mark.parametrize("precision", ["quad", "extended"])
    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_unknown_precision_is_refused(self, tmp_path, monkeypatch, capsys, argv, precision):
        argv, work = in_workdir(argv, tmp_path)
        monkeypatch.setenv("FRAC_HEAT_PRECISION", precision)
        assert run(argv) == 2
        assert (f"FRAC_HEAT_PRECISION must be 'standard' or unset, got {precision!r}: "
                "extended precision is retired" in capsys.readouterr().err)
        assert list(work.iterdir()) == []

    def test_standard_precision_is_the_default(self, tmp_path, monkeypatch):
        unset, standard = tmp_path / "unset.json", tmp_path / "standard.json"
        monkeypatch.delenv("FRAC_HEAT_PRECISION", raising=False)
        assert run([*COMMANDS[0], "--out", str(unset)]) == 0
        monkeypatch.setenv("FRAC_HEAT_PRECISION", "standard")
        assert run([*COMMANDS[0], "--out", str(standard)]) == 0
        assert standard.read_bytes() == unset.read_bytes()


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify-moments", "--alpha", "0.25,0.75"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_format(self, tmp_path):
        out = tmp_path / "sup.csv"
        assert run(["decay-sup", "--alpha", "0.5", "--lambda", "1.0",
                    "--t", "10.0", "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == sorted(header)
        assert len(lines) == 4  # header + three kernels

    def test_csv_quotes_what_its_fields_hold(self, tmp_path):
        # a delimiter, a quote or a newline in a field is quoted: the rows
        # read back through csv.reader are the records
        rec = {"command": "eval-ml", "method": "a,b", "note": 'say "hi"\nthen stop'}
        src, out = tmp_path / "r.json", tmp_path / "r.csv"
        src.write_text(json.dumps({"schema_version": 1, "records": [rec]}))
        assert run(["report", str(src), "--format", "csv", "--out", str(out)]) == 0
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert rows == [sorted(rec), [rec[k] for k in sorted(rec)]]

    def test_decay_sup_past_the_double_range(self, tmp_path):
        # t = 1e-320: the heat record was inf beside a finite supremum at
        # lambda 1, and t^-1 raised OverflowError (exit 2) at lambda 2
        out = tmp_path / "sup.json"
        argv = ["decay-sup", "--alpha", "1.0", "--t", "1e-320", "--out", str(out)]
        assert run([*argv, "--lambda", "1"]) == 0
        values = {r["kernel"]: r["value"] for r in json.loads(out.read_text())["records"]}
        assert values["heat"] == pytest.approx(4.2888432983246395e159, rel=1e-13)
        assert values["mittag-leffler"] == pytest.approx(values["heat"], rel=1e-13)
        assert run([*argv, "--lambda", "2"]) == 0
        values = {r["kernel"]: r["value"] for r in json.loads(out.read_text())["records"]}
        assert values == dict.fromkeys(["heat", "mittag-leffler", "algebraic-bound"], "inf")

    def test_no_partial_file_on_failure(self, tmp_path):
        out = tmp_path / "never.json"
        for argv in (["decay-sup", "--alpha", "0.5", "--lambda", "9.0"],  # beta > 1
                     ["decay-sup", "--alpha", "0.5", "--lambda", "1.0", "--t", "nan"],
                     ["eval-ml", "--alpha", "0.5", "--x", "nan"]):
            assert run(argv + ["--out", str(out)]) == 2
            assert not out.exists()
        with pytest.raises(ValueError):
            cli.emit_report([{"value": float("nan")}], "json", str(out))
        assert not out.exists()


class TestConfig:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nalpha = 0.25\nt = 100.0\n")
        out = tmp_path / "sup.json"
        assert run(["decay-sup", "--alpha", "0.5", "--lambda", "1.0",
                    "--config", str(cfg), "--out", str(out)]) == 0
        recs = json.loads(out.read_text())["records"]
        # flag wins over config for alpha; config fills in t
        assert all(r["alpha"] == 0.5 for r in recs)
        assert all(r["t"] == 100.0 for r in recs)

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 1\n")
        assert run(["decay-sup", "--alpha", "0.5", "--lambda", "1.0",
                    "--config", str(cfg)]) == 2

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        assert run(["decay-sup", "--alpha", "0.5", "--lambda", "1.0",
                    "--config", str(cfg)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert run(["decay-sup", "--alpha", "0.5", "--lambda", "1.0",
                    "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_config_value_is_parsed_like_its_flag(self, tmp_path):
        # the flag's float type parses the config value, and the report
        # matches the one made with --t
        cfg = tmp_path / "t.cfg"
        cfg.write_text("t = 2.5\n")
        argv = ["decay-sup", "--alpha", "0.3", "--lambda", "1.5"]
        by_config, by_flag = tmp_path / "config.json", tmp_path / "flag.json"
        assert run(argv + ["--config", str(cfg), "--out", str(by_config)]) == 0
        assert run(argv + ["--t", "2.5", "--out", str(by_flag)]) == 0
        assert by_config.read_text() == by_flag.read_text()
        assert all(r["t"] == 2.5 for r in json.loads(by_flag.read_text())["records"])

    def test_config_supplies_required_flags(self, tmp_path):
        # a required flag whose key the config holds is not required on the
        # command line: the same report as the flags give
        cfg = tmp_path / "c.cfg"
        cfg.write_text("alpha = 0.5\nx = 1.0\n")
        by_config, by_flag = tmp_path / "config.json", tmp_path / "flag.json"
        assert run(["eval-ml", "--config", str(cfg), "--out", str(by_config)]) == 0
        assert run(["eval-ml", "--alpha", "0.5", "--x", "1.0", "--out", str(by_flag)]) == 0
        assert by_config.read_bytes() == by_flag.read_bytes()

    def test_required_flag_missing_from_config_is_still_required(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("alpha = 0.5\n")
        assert run(["eval-ml", "--config", str(cfg)]) == 2
        assert "the following arguments are required: --x" in capsys.readouterr().err

    def test_flag_set_to_its_default_wins(self, tmp_path):
        cfg = tmp_path / "fmt.cfg"
        cfg.write_text("format = csv\n")
        out = tmp_path / "ml.json"
        assert run(["eval-ml", "--alpha", "0.5", "--x", "1.0", "--config", str(cfg),
                    "--format", "json", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["schema_version"] == 1

    def test_bad_config_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "dim.cfg"
        cfg.write_text("dim = two\n")
        assert run(["solve", "--alpha", "0.5", "--t", "1.0", "--config", str(cfg)]) == 2
        assert "invalid int value: 'two'" in capsys.readouterr().err


    @pytest.mark.parametrize("line", ["format = xml", "rep = bogus"])
    def test_config_value_outside_choices_is_refused_up_front(self, tmp_path, capsys, line):
        cfg = tmp_path / "choice.cfg"
        cfg.write_text(line + "\n")
        field, out = tmp_path / "f.bin", tmp_path / "solve.json"
        assert run(["solve", "--alpha", "0.5", "--t", "1.0", "--N", "256",
                    "--field-out", str(field), "--config", str(cfg), "--out", str(out)]) == 2
        assert "invalid choice" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]


class TestSolveAndReport:
    def test_solve_writes_field(self, tmp_path):
        field_path = tmp_path / "field.bin"
        out = tmp_path / "solve.json"
        assert run(["solve", "--alpha", "0.5", "--t", "1.0", "--N", "256",
                    "--field-out", str(field_path), "--out", str(out)]) == 0
        restored, t = read_field(field_path)
        assert t == 1.0
        assert restored.grid.points_per_dim == 256
        (rec,) = json.loads(out.read_text())["records"]
        assert rec["norm_l2"] == pytest.approx(restored.norm_lp(2.0), rel=1e-12)

    @pytest.mark.parametrize("rep", ["direct", "subordination"])
    def test_solve_of_a_bump_wider_than_the_double_range(self, tmp_path, rep):
        # sigma^2 overflows (exit 2 with errno 34 once): the bump is a field
        # of ones, which the propagator keeps
        out = tmp_path / "solve.json"
        assert run(["solve", "--alpha", "0.5", "--t", "1.0", "--N", "256", "--sigma", "1e200",
                    "--rep", rep, "--out", str(out)]) == 0
        (rec,) = json.loads(out.read_text())["records"]
        assert rec["mean"] == pytest.approx(1.0, abs=1e-12)
        assert rec["max_norm"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("rep", ["direct", "subordination"])
    def test_solve_drops_the_bump_before_it_steps(self, monkeypatch, rep):
        # a one-step solve reads the bump once, in the forward FFT: no name
        # holds it past that, in cmd_solve or spectral_solve
        refs, alive = [], []
        bump, call = pde_solver.gaussian_bump, pde_solver._Step.__call__
        monkeypatch.setattr(pde_solver, "gaussian_bump",
                            lambda *a, **k: refs.append(weakref.ref(w := bump(*a, **k))) or w)
        monkeypatch.setattr(pde_solver._Step, "__call__",
                            lambda step, t: alive.append(refs[0]() is not None) or call(step, t))
        assert run(["solve", "--alpha", "0.5", "--t", "1.0", "--N", "256", "--rep", rep,
                    "--dim", "2", "--L", "64"]) == 0
        assert alive == [False]

    def test_solve_representations_agree(self, tmp_path):
        outs = []
        for rep in ("direct", "subordination"):
            out = tmp_path / f"{rep}.json"
            assert run(["solve", "--alpha", "0.5", "--t", "1.0", "--N", "256",
                        "--rep", rep, "--out", str(out)]) == 0
            outs.append(json.loads(out.read_text())["records"][0])
        assert outs[0]["norm_l2"] == pytest.approx(outs[1]["norm_l2"], rel=1e-9)

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_tol_is_refused(self, tmp_path, capsys, argv, how):
        # there is no evaluation knob: a tolerance flag or config key is
        # refused before anything runs or is written
        argv, work = in_workdir(argv, tmp_path)
        if how == "flag":
            argv += ["--tol", "1e-6"]
        else:
            cfg = tmp_path / "tol.cfg"
            cfg.write_text("tol = 1e-6\n")
            argv += ["--config", str(cfg)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert ("unrecognized arguments: --tol" if how == "flag"
                else "unknown config key 'tol'") in err
        assert list(work.iterdir()) == []

    def test_solve_past_the_double_range_of_t_alpha_xi2(self, tmp_path):
        # t^alpha |xi|^2 overflows to inf on the high modes, where
        # E_alpha(-x) is 0: the real-axis rule solves as alpha = 1 does
        argv = ["solve", "--t", "1e308", "--N", "4096", "--L", "20"]
        recs = []
        for alpha in ("0.999", "1.0"):
            out = tmp_path / f"{alpha}.json"
            assert run([*argv, "--alpha", alpha, "--out", str(out)]) == 0
            recs.append(json.loads(out.read_text())["records"][0])
        assert recs[0]["method"] == "direct_ml/real-axis"
        assert abs(recs[0]["max_norm"] - recs[1]["max_norm"]) <= 1e-15

    def test_solve_past_the_double_range_warns_nothing(self, capsys):
        # the overflow of t^alpha |xi|^2 to inf is the intended kernel input
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["solve", "--alpha", "1.0", "--t", "1e308", "--dim", "1",
                        "--N", "64", "--L", "20"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("alpha, rep, method", [
        ("0.5", "direct", "direct_ml/hankel-32"),
        ("0.99", "direct", "direct_ml/real-axis"),
        ("1.0", "direct", "direct_ml/exp"),
        ("0.5", "subordination", "subordination/wright-mass-table"),
    ])
    def test_solve_method_names_the_algorithm(self, tmp_path, alpha, rep, method):
        out = tmp_path / "solve.json"
        assert run(["solve", "--alpha", alpha, "--t", "1.0", "--N", "256", "--rep", rep,
                    "--out", str(out)]) == 0
        (rec,) = json.loads(out.read_text())["records"]
        assert rec["method"] == method
        assert rec["representation"] == ("subordination" if rep == "subordination"
                                         else "direct_ml")

    def test_solve_rejects_non_finite_time(self, capsys):
        assert run(["solve", "--alpha", "0.5", "--t", "nan", "--N", "256"]) == 2
        assert "error code=2" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--t=-1"], ["--t", "nan"],
                                       ["--t", "1", "--rep", "subordination", "--alpha", "0.999"]])
    def test_solve_validates_before_it_allocates(self, monkeypatch, capsys, extra):
        # on the default 2D grid (N 4096) a bad t or alpha is refused before
        # the memory preflight and before the initial field is allocated
        def unreachable(*args, **kwargs):
            raise AssertionError("reached past validation")

        monkeypatch.setattr(cli, "_available_memory", unreachable)
        monkeypatch.setattr(pde_solver, "gaussian_bump", unreachable)
        assert run(["solve", "--alpha", "0.5", "--dim", "2", *extra]) == 2
        assert "error code=2 type=ValueError" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, name", [
        ("--L", "nan", "box_length"), ("--L", "inf", "box_length"), ("--sigma", "nan", "sigma"),
        ("--sigma", "1e-163", "sigma"),  # 2 sigma^2 underflows: it exited 1, "internal"
    ])
    def test_solve_rejects_non_finite_box_or_width(self, tmp_path, capsys, flag, value, name):
        argv = ["solve", "--alpha", "0.5", "--t", "1.0", "--N", "256", flag, value,
                "--field-out", str(tmp_path / "field.bin"), "--out", str(tmp_path / "solve.json")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "error code=2" in err and f"{name} must be positive and finite" in err
        assert list(tmp_path.iterdir()) == []

    def test_solve_refuses_a_grid_beyond_available_memory(self, tmp_path, monkeypatch,
                                                          capsys):
        # 2D N = 256 needs about 1.1 MiB at 18 B per point
        field_path, out = tmp_path / "field.bin", tmp_path / "solve.json"
        argv = ["solve", "--alpha", "0.5", "--t", "1.0", "--dim", "2", "--N", "256",
                "--L", "64", "--field-out", str(field_path), "--out", str(out)]
        monkeypatch.setattr(cli, "_available_memory", lambda: 2 ** 20)
        assert run(argv) == 2
        assert "needs about 1.1 MiB; 1.0 MiB available" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        monkeypatch.setattr(cli, "_available_memory", lambda: 3 * 2 ** 20)
        assert run(argv) == 0
        assert field_path.exists() and out.exists()

    def test_available_memory_is_read(self):
        assert cli._available_memory() > 0

    @pytest.mark.parametrize("cgroup, files, expected_mib", [
        # v2: memory.max - memory.current under the unified path
        ("0::/job\n", {"/sys/fs/cgroup/job/memory.max": "3145728\n",
                       "/sys/fs/cgroup/job/memory.current": "1048576\n"}, 2),
        ("0::/\n", {"/sys/fs/cgroup/memory.max": "3145728\n",
                    "/sys/fs/cgroup/memory.current": "2097152\n"}, 1),
        # v1: limit_in_bytes - usage_in_bytes under the memory controller
        ("4:memory:/job\n0::/\n", {"/sys/fs/cgroup/memory/job/memory.limit_in_bytes": "5242880",
                                   "/sys/fs/cgroup/memory/job/memory.usage_in_bytes": "1048576"}, 4),
        ("7:cpuacct,memory:/a/b\n", {"/sys/fs/cgroup/memory/a/b/memory.limit_in_bytes": "3145728",
                                     "/sys/fs/cgroup/memory/a/b/memory.usage_in_bytes": "0"}, 3),
        # usage past the limit leaves no headroom
        ("0::/\n", {"/sys/fs/cgroup/memory.max": "1048576",
                    "/sys/fs/cgroup/memory.current": "2097152"}, 0),
        # a larger cgroup limit leaves MemAvailable the smaller
        ("0::/\n", {"/sys/fs/cgroup/memory.max": str(64 * 2 ** 20),
                    "/sys/fs/cgroup/memory.current": "0"}, 8),
        # no limit, an unreadable file, no memory controller, no cgroup file
        ("0::/\n", {"/sys/fs/cgroup/memory.max": "max\n",
                    "/sys/fs/cgroup/memory.current": "1048576"}, 8),
        ("0::/\n", {"/sys/fs/cgroup/memory.max": "1048576"}, 8),
        ("4:cpu:/job\n", {"/sys/fs/cgroup/memory/job/memory.limit_in_bytes": "1048576",
                          "/sys/fs/cgroup/memory/job/memory.usage_in_bytes": "0"}, 8),
        (None, {}, 8),
    ])
    def test_available_memory_is_capped_by_the_cgroup(self, monkeypatch, cgroup, files,
                                                       expected_mib):
        # the reader is patched: no real cgroup or meminfo file is read
        files = {**files, "/proc/meminfo": "MemTotal: 1 kB\nMemAvailable:    8192 kB\n"}
        if cgroup is not None:
            files["/proc/self/cgroup"] = cgroup
        monkeypatch.setattr(cli, "_read", lambda path: files.get(path, ""))
        assert cli._available_memory() == expected_mib * 2 ** 20

    def test_solve_preflight_reads_the_cgroup_headroom(self, tmp_path, monkeypatch, capsys):
        # 2D N = 256 needs about 1.1 MiB; MemAvailable is ample, the cgroup is not
        files = {"/proc/meminfo": "MemAvailable: 8388608 kB\n", "/proc/self/cgroup": "0::/\n",
                 "/sys/fs/cgroup/memory.max": str(3 * 2 ** 20),
                 "/sys/fs/cgroup/memory.current": str(2 * 2 ** 20)}
        monkeypatch.setattr(cli, "_read", lambda path: files.get(path, ""))
        argv = ["solve", "--alpha", "0.5", "--t", "1.0", "--dim", "2", "--N", "256",
                "--L", "64", "--out", str(tmp_path / "solve.json")]
        assert run(argv) == 2
        assert "needs about 1.1 MiB; 1.0 MiB available" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_decay_compare_reports_divergence(self, tmp_path):
        out = tmp_path / "cmp.json"
        assert run(["decay-compare", "--alpha", "0.5", "--lambda", "1.0",
                    "--eps", "0.2,0.1", "--out", str(out)]) == 0
        recs = json.loads(out.read_text())["records"]
        endpoint = [r for r in recs
                    if r.get("representation") == "subordination" and r.get("eps") == 0.0]
        assert endpoint and endpoint[0]["constant"] == "inf"
        (verdict,) = [r for r in recs if "verdict" in r]
        assert verdict["direct_uniform_bound"] == 1.0
        assert verdict["method"] == "simon-2014-bound"

    def test_finite_subordination_constants_carry_the_quadrature_tag(self, tmp_path):
        # each finite subordination constant is a computed moment, tagged
        # "quadrature", within 1e-12 of Gamma(1-beta)/Gamma(1-alpha beta),
        # and its record carries that value and the relative gap; no other
        # record does
        out = tmp_path / "cmp.json"
        assert run(["decay-compare", "--alpha", "0.5", "--lambda", "3.0",
                    "--out", str(out)]) == 0
        records = json.loads(out.read_text())["records"]
        recs = [r for r in records
                if r.get("representation") == "subordination" and r["eps"] > 0.0]
        assert len(recs) == 3 and {r["method"] for r in recs} == {"quadrature"}
        for r in recs:
            beta = 3.0 * r["delta"]
            exact = math.gamma(1.0 - beta) / math.gamma(1.0 - 0.5 * beta)
            assert r["constant"] == pytest.approx(exact, rel=1e-12, abs=0.0)
            assert r["exact"] == exact
            assert r["relative_error"] == abs(r["constant"] - exact) / exact <= 1e-11
        assert sum("exact" in r for r in records) == 3

    def test_decay_compare_refuses_a_perturbed_moment(self, monkeypatch, capsys):
        original = cli.decay_analysis.wright_moments
        monkeypatch.setattr(cli.decay_analysis, "wright_moments",
                            lambda a, gammas: [v * (1.0 + 3.2e-10) for v in original(a, gammas)])
        assert run(["decay-compare", "--alpha", "0.5", "--lambda", "2.0"]) == 3
        assert "type=QualityFailure message='moment identity error" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        # decay-compare probes delta = 1/lambda - eps: it has no p or q
        (["--p", "1", "--q", "1"], "unrecognized arguments: --p 1 --q 1"),
        (["--p", "3", "--q", "2"], "unrecognized arguments: --p 3 --q 2"),
        (["--eps", "-0.1"], "error code=2"),  # below the endpoint eps = 0
        (["--eps", "2"], "error code=2"),  # past 1/lambda = 1: delta would be negative
    ], ids=["extra0", "extra1", "extra2", "extra3"])
    def test_decay_compare_rejects_exponents_it_cannot_honour(self, extra, message, capsys):
        assert run(["decay-compare", "--alpha", "0.5", "--lambda", "1.0", *extra]) == 2
        assert message in capsys.readouterr().err

    def test_decay_sup_refuses_a_maximizer_outside_the_grid(self, tmp_path, capsys):
        # beta = 1e-10 puts the maximizer near u = 1e-10, below the grid,
        # where the search printed a constant 1.07e-8 too low
        out = tmp_path / "sup.json"
        assert run(["decay-sup", "--alpha", "0.5", "--lambda", "2e-10",
                    "--out", str(out)]) == 2
        assert "error code=2 type=ValueError" in capsys.readouterr().err
        assert not out.exists()

    def test_decay_sup_rejects_p_below_one(self, capsys):
        # beta = 0.5 (2 - 1/4) lies in (0, 1], but p = 0.5 is no L^p -> L^q pair
        assert run(["decay-sup", "--alpha", "0.5", "--lambda", "0.5", "--p", "0.5"]) == 2
        assert "error code=2" in capsys.readouterr().err

    def test_report_merges_documents(self, tmp_path):
        a, b, merged = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "m.json"
        assert run(["verify-moments", "--alpha", "0.5", "--out", str(a)]) == 0
        assert run(["eval-ml", "--alpha", "0.5", "--x", "1.0", "--out", str(b)]) == 0
        assert run(["report", str(a), str(b), "--out", str(merged)]) == 0
        doc = json.loads(merged.read_text())
        assert len(doc["records"]) == 7

    @pytest.mark.parametrize("argv", [
        ["eval-ml", "--alpha", "0.5", "--x", "1.0", "--out", "DIR"],
        ["report", "DIR"],
        ["eval-ml", "--alpha", "0.5", "--x", "1.0", "--config", "DIR"],
    ], ids=["out", "report", "config"])
    def test_directory_path_is_a_validation_error(self, tmp_path, capsys, argv):
        # IsADirectoryError is an OSError, as FileNotFoundError is: exit 2
        # with nothing written, no temporary file left beside the target
        directory = tmp_path / "dir"
        directory.mkdir()
        assert run([str(directory) if a == "DIR" else a for a in argv]) == 2
        assert "error code=2 type=IsADirectoryError" in capsys.readouterr().err
        assert [p.name for p in tmp_path.rglob("*")] == ["dir"]

    def test_report_rejects_an_empty_record_list(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"schema_version": 1, "records": []}))
        assert run(["report", str(empty)]) == 2
        assert "empty result set" in capsys.readouterr().err

    def test_report_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema_version": 99, "records": []}))
        assert run(["report", str(bad)]) == 2

    @pytest.mark.parametrize("doc", [
        {"schema_version": 1},  # no records
        [{"schema_version": 1, "records": []}],  # a list, not a report object
        {"schema_version": 1, "records": [1.5]},  # a record that is no object
        # values the record sort cannot order against each other
        {"schema_version": 1, "records": [{"alpha": {"a": 1}}, {"alpha": {"b": 2}}]},
    ], ids=["no-records", "top-level-list", "non-object-record", "non-scalar-value"])
    def test_report_rejects_malformed_input(self, tmp_path, capsys, doc):
        bad, out = tmp_path / "bad.json", tmp_path / "merged.json"
        bad.write_text(json.dumps(doc))
        assert run(["report", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error code=2 type=ValueError" in err and "'records' is a list of objects" in err
        assert not out.exists()

