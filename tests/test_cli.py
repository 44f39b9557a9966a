"""Command-line contract: report formats, exit codes, determinism, and the
documented example invocations."""

import cmath
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bgcs
from bgcs import cli, coherent, pathint
from bgcs.mc import DEFAULT_SEED


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rou_quadrature_example(capsys):
    code, out, _ = run(["rou", "--n", "1", "--k", "0.5", "--cutoff", "6",
                        "--mode", "quadrature"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["max_dev"] <= 1e-8
    assert report["passed"] is True


def test_formula_b_domain_error_example(capsys):
    code, out, err = run(["formula-b", "--mu", "0.5", "--nu", "1", "--a", "1"], capsys)
    assert code == 1
    assert out == ""
    assert "mu" in err and "nu" in err


def test_trace_matrix_example(capsys):
    code, out, _ = run(["trace", "--n", "1", "--k", "1", "--mu", "1", "--beta", "1",
                        "--m", "64", "--backend", "matrix",
                        "--cutoff", "40"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["reference"] == pytest.approx(1.5819767069, rel=1e-9)
    assert abs(report["value"] - report["reference"]) <= 0.01 * report["reference"]
    assert report["weights"] == "linear"


def test_trace_real_time_matrix_reference(capsys):
    """Real time: the reference is sum_n exp(-i t n) over the 21 states of
    the N = 1 basis (mu = 1, c_last = 0), and its imaginary part is kept."""
    code, out, _ = run(["trace", "--n", "1", "--k", "1", "--mu", "1", "--t", "0.1",
                        "--m", "64", "--backend", "matrix",
                        "--cutoff", "20", "--tol", "0.05"], capsys)
    report = json.loads(out)
    expected = sum(cmath.exp(-0.1j * n) for n in range(21))
    assert report["reference"] == pytest.approx(expected.real, rel=1e-12)
    assert report["reference_im"] == pytest.approx(expected.imag, rel=1e-12)
    assert code == 0 and report["passed"] is True


def test_trace_falls_back_to_the_truncated_reference(capsys):
    """mu = 0 makes the closed product diverge, so the reference is the
    truncated trace: all 21 levels of the N = 1 basis sit at 0."""
    hp = pathint.HamiltonianParams.from_mu([0.0])
    with pytest.raises(ValueError, match="diverges"):
        pathint.exact_spectral_trace(hp, 1.0, 1.0)
    code, out, _ = run(["trace", "--n", "1", "--k", "1", "--mu", "0", "--beta", "1",
                        "--m", "64", "--backend", "matrix",
                        "--cutoff", "20"], capsys)
    report = json.loads(out)
    assert report["reference"] == 21.0 and "reference_im" not in report
    assert code == 0


def test_trace_montecarlo_without_cutoff_has_no_reference(capsys):
    code, out, _ = run(["trace", "--n", "1", "--k", "1", "--mu", "1", "--beta", "1",
                        "--m", "8", "--backend", "montecarlo", "--budget", "2000"], capsys)
    report = json.loads(out)
    assert code == 0
    assert "reference" not in report and "passed" not in report
    assert report["backend"] == "montecarlo" and report["budget"] == 2000


def test_trace_real_time_montecarlo_is_refused(capsys):
    """Real time has no Monte Carlo integral to estimate (pathint docstring),
    so the run exits 1 with no report."""
    code, out, err = run(["trace", "--n", "1", "--k", "1", "--mu", "1", "--t", "1", "--m", "1",
                          "--backend", "montecarlo", "--cutoff", "3", "--seed", "7"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("bgcs trace: montecarlo backend cannot run in real time")


def test_trace_montecarlo_single_slice_report_is_real(capsys):
    code, out, _ = run(["trace", "--n", "1", "--k", "10", "--mu", "1.2", "--beta", "1",
                        "--m", "1", "--backend", "montecarlo", "--cutoff", "6",
                        "--budget", "20000", "--seed", "5"], capsys)
    report = json.loads(out)
    assert code == 0 and "value_im" not in report
    assert report["value"] == 0.894818085865205


ONE_SAMPLE_RUNS = [
    ["sample", "--n", "1", "--k", "1", "--budget", "1"],
    ["trace", "--n", "1", "--k", "10", "--mu", "1.2", "--beta", "1", "--m", "1",
     "--backend", "montecarlo", "--cutoff", "6", "--budget", "1"],
]


@pytest.mark.parametrize("argv", ONE_SAMPLE_RUNS)
def test_an_infinite_standard_error_fails_the_gate(argv, capsys):
    """One sample has no standard error, so its gate cannot pass."""
    code, out, _ = run(argv, capsys)
    report = json.loads(out)
    assert code == 2 and report["passed"] is False


def _refuse_constant(token):
    raise ValueError(f"{token} is not a JSON number")


@pytest.mark.parametrize("argv, nulls", zip(ONE_SAMPLE_RUNS, [9, 1]))
def test_non_finite_numbers_are_written_as_null(argv, nulls, capsys):
    """An infinite standard error, and each z-score taken from one, is
    written as null, so the report is strict JSON; the run still exits 2."""
    code, out, _ = run(argv, capsys)
    report = json.loads(out, parse_constant=_refuse_constant)
    assert code == 2 and report["passed"] is False
    assert out.count(": null") == nulls
    assert (report["max_z"] if argv[0] == "sample" else report["error"]) is None


@pytest.mark.parametrize("mu, beta", [("1e-200", "1e-200"), ("1e-150", "1e-160")])
def test_trace_reference_past_double_range_exits_1(mu, beta, capsys):
    """beta * mu = 1e-400 underflows to 0 and 1 / 1e-310 overflows: the closed
    product leaves double range, so the run exits 1 with no report."""
    code, out, err = run(["trace", "--n", "1", "--k", "1", "--mu", mu, "--beta", beta,
                          "--m", "4", "--cutoff", "2"], capsys)
    assert (code, out) == (1, "")
    assert err == f"bgcs trace: untruncated spectral trace exceeds double range at beta={beta}\n"


@pytest.mark.parametrize("argv", [
    ["measure-check", "--n", "1", "--k", "300", "--occ", "5"],
    ["formula-b", "--mu", "400", "--nu", "0", "--a", "1"],
    ["formula-a", "--n", "1", "--k", "200", "--s", "0"],
    ["rou", "--n", "1", "--k", "300", "--cutoff", "2"],
])
def test_integrals_past_double_range_exit_1(argv, capsys):
    """A half-line integral out of double range is a domain error: exit 1,
    one line on stderr, no report and no RuntimeWarning."""
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"bgcs {argv[0]}: trapezoid integral on [")
    assert err.endswith("] exceeds double range\n")


def test_csv_flattens_list_parameters(capsys):
    code, out, _ = run(["eval-f", "--k", "1.5", "--w", "0.3,0.5+0.2j", "--format", "csv"],
                       capsys)
    header, row = (line.split(",") for line in out.strip().splitlines())
    fields = dict(zip(header, row))
    assert code == 0
    assert (fields["params.w_re.0"], fields["params.w_re.1"]) == ("0.3", "0.5")
    assert (fields["params.w_im.0"], fields["params.w_im.1"]) == ("0.0", "0.2")


def test_vector_options_of_the_wrong_length_exit_1(capsys):
    code, out, err = run(["measure-check", "--n", "2", "--k", "1", "--occ", "1"], capsys)
    assert (code, out) == (1, "")
    assert err == "bgcs measure-check: need non-negative integer n_vec of length 2, got [1]\n"
    code, out, err = run(["formula-a", "--n", "2", "--k", "1", "--s", "0.5,0.2,0.1"], capsys)
    assert (code, out) == (1, "")
    assert err == "bgcs formula-a: need finite s of length 2, got [0.5, 0.2, 0.1]\n"


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["rou", "--n", "1"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-command"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        cli.main(["eval-f", "--k", "1", "--w", "abc"])
    assert info.value.code == 1


def test_domain_error_exit_1(capsys):
    code, out, err = run(["inner", "--k", "1", "--z", "1,2", "--zp", "1"], capsys)
    assert code == 1 and "length" in err
    with pytest.raises(SystemExit) as info:
        cli.main(["trace", "--n", "1", "--k", "1", "--mu", "1", "--m", "4",
                  "--backend", "matrix", "--cutoff", "6"])
    assert info.value.code == 1 and "--beta" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["eval-f", "--k", "inf", "--w", "1"], "need finite k > 0"),
    (["eval-f", "--k", "nan", "--w", "1"], "need finite k > 0"),
    (["inner", "--k", "inf", "--z", "1", "--zp", "0.5"], "need finite k > 0"),
    (["formula-a", "--n", "1", "--k", "1", "--s", "inf"], "need finite s of length 1, got [inf]"),
    (["formula-b", "--mu", "inf", "--nu", "0", "--a", "1"], "need finite mu, got inf"),
    (["trace", "--n", "1", "--k", "1", "--mu", "1", "--t", "nan",
      "--m", "8", "--cutoff", "4"], "need finite horizon, got nan"),
    (["trace", "--n", "1", "--k", "1", "--mu", "1", "--beta", "inf", "--m", "8",
      "--cutoff", "4"], "need finite horizon > 0, got inf"),
])
def test_non_finite_parameters_exit_1(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert message in err


def test_list_arguments_keep_their_messages(capsys):
    cases = ((["eval-f", "--k", "1", "--w", "1,x"], "numbers", "'1,x'"),
             (["formula-a", "--n", "1", "--k", "1", "--s", "0.5,y"], "reals", "'0.5,y'"),
             (["measure-check", "--n", "2", "--k", "1", "--occ", "1,0.5"], "integers", "'1,0.5'"))
    for argv, noun, text in cases:
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 1
        assert f"expected comma-separated {noun}, got {text}" in capsys.readouterr().err


def test_label_and_sum_errors_print_no_warning(capsys):
    code, out, err = run(["inner", "--k", "1", "--z", "inf", "--zp", "0.5"], capsys)
    assert (code, out, err) == (1, "", "bgcs inner: need finite z of length >= 1, got [(inf+0j)]\n")
    code, out, err = run(["eval-f", "--k", "1", "--w", "1e308,1e308"], capsys)
    assert (code, out, err) == (1, "", "bgcs eval-f: F series (k=1.0) exceeds double range\n")


def test_values_the_cli_would_ignore_or_not_report_exit_1(capsys):
    """--n 3 with one --mu used to run N = 1; --tol nan used to write
    "tol": NaN, which is not JSON, and exit 2."""
    code, out, err = run(["trace", "--n", "3", "--k", "1", "--mu", "1", "--beta", "1",
                          "--m", "8", "--cutoff", "4"], capsys)
    assert (code, out, err) == (1, "", "bgcs trace: need finite mu of length 3, got [1.0]\n")
    with pytest.raises(SystemExit) as info:
        cli.main(["formula-b", "--mu", "3", "--nu", "0.5", "--a", "1", "--tol", "nan"])
    captured = capsys.readouterr()
    assert (info.value.code, captured.out) == (1, "")
    assert "bgcs formula-b: error: argument --tol: need finite tol > 0, got nan" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["rou", "--n", "1", "--k", "1", "--cutoff", "2", "--budget", "0", "--seed", "-5",
      "--workers", "0"], "need integer seed >= 0, got -5"),
    (["rou", "--n", "1", "--k", "1", "--cutoff", "2", "--budget", "0"],
     "need integer sample count >= 1, got 0"),
    (["rou", "--n", "1", "--k", "1", "--cutoff", "2", "--workers", "0"],
     "need integer workers >= 1, got 0"),
])
def test_options_a_mode_does_not_read_are_still_checked(argv, message, capsys):
    """rou by quadrature draws no samples, yet a bad value there used to exit 0."""
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (1, "", f"bgcs {argv[0]}: {message}\n")


@pytest.mark.parametrize("horizons, message", [
    (["--beta", "1", "--t", "nan"], "argument --t: not allowed with argument --beta"),
    ([], "one of the arguments --beta --t is required"),
], ids=["both", "neither"])
def test_trace_takes_exactly_one_of_beta_and_t(horizons, message, capsys):
    """--beta means imaginary time and --t real time, so both, or neither,
    is a usage error."""
    with pytest.raises(SystemExit) as info:
        cli.main(["trace", "--n", "1", "--k", "1", "--mu", "1", "--m", "8", "--cutoff", "4",
                  *horizons])
    captured = capsys.readouterr()
    assert (info.value.code, captured.out) == (1, "")
    assert captured.err.endswith(f"bgcs trace: error: {message}\n")


def test_formula_a_divergent_origin_is_a_domain_error(capsys):
    code, out, err = run(["formula-a", "--n", "3", "--k", "2", "--s=-0.9,-0.9,-0.9"], capsys)
    assert (code, out) == (1, "")
    assert "sum(s) + min(K, N) > 0" in err


def test_sample_small_k_runs_clean():
    """K = 0.07 puts radial_cdf's tanh-sinh nodes at R ~ 1e-300: the
    sampler report must come out with no error and no warning on stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(bgcs.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-m", "bgcs", "sample", "--n", "1", "--k", "0.07",
                           "--budget", "1000"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["passed"] is True


@pytest.mark.parametrize("n,k", [("2", "0.1"), ("1", "0.09"), ("3", "0.1")])
def test_sample_small_argument_bessel_runs(n, k):
    """The CDF rows of these models evaluate K_{K-N} at arguments near
    1e-120, which takes the small-argument Bessel form.  At N = 3 that K
    exceeds the largest double while R^p K does not: the density adds logs."""
    env = dict(os.environ, PYTHONPATH=str(Path(bgcs.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-m", "bgcs", "sample", "--n", n, "--k", k,
                           "--budget", "1000"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["passed"] is True


def test_tolerance_breach_exit_2(capsys):
    code, out, _ = run(["measure-check", "--n", "1", "--k", "1", "--occ", "2",
                        "--tol", "1e-18"], capsys)
    assert code == 2
    report = json.loads(out)
    assert report["passed"] is False


GATED = {
    "measure-check": (["measure-check", "--n", "2", "--k", "1.5", "--occ", "1,2"], "tol"),
    "formula-a": (["formula-a", "--n", "2", "--k", "1.5", "--s", "0.5,1.3"], "tol"),
    "formula-b": (["formula-b", "--mu", "2.5", "--nu", "0.7", "--a", "1.3"], "tol"),
    "rou-quadrature": (["rou", "--n", "1", "--k", "0.5", "--cutoff", "4"], "tol"),
    "rou-montecarlo": (["rou", "--n", "1", "--k", "1", "--cutoff", "2", "--mode", "montecarlo",
                        "--budget", "2000", "--seed", "1"], "zmax"),
    "sample": (["sample", "--n", "1", "--k", "1", "--budget", "2000", "--seed", "1"], "zmax"),
    "trace-matrix": (["trace", "--n", "1", "--k", "1", "--mu", "1", "--beta", "1", "--m", "64",
                      "--cutoff", "20"], "tol"),
    "trace-montecarlo": (["trace", "--n", "1", "--k", "2", "--mu", "1", "--beta", "1", "--m", "8",
                          "--backend", "montecarlo", "--cutoff", "4", "--budget", "2000",
                          "--seed", str(DEFAULT_SEED)], "zmax"),
}


@pytest.mark.parametrize("command", GATED)
@pytest.mark.parametrize("bound, code", [(None, 0), ("1e-300", 2)])
def test_every_gate_reports_its_bound_and_verdict(command, bound, code, capsys):
    """Each gated subcommand writes the bound it was held to under its own
    key ("tol" or "zmax", never both), `passed` as a JSON bool, and exits 0
    at its default bound and 2 when the bound is breached."""
    argv, key = GATED[command]
    argv = argv + ([] if bound is None else [f"--{key}", bound])
    got, out, err = run(argv, capsys)
    report = json.loads(out)
    assert (got, err) == (code, "")
    assert report[key] == vars(cli.build_parser().parse_args(argv))[key]
    assert ("zmax" if key == "tol" else "tol") not in report
    assert f'"passed": {"true" if code == 0 else "false"}' in out
    assert report["passed"] is (code == 0)


def test_eval_f_matches_library(capsys):
    code, out, _ = run(["eval-f", "--k", "1.5", "--w", "0.3,0.5+0.2j"], capsys)
    assert code == 0
    report = json.loads(out)
    expected = complex(coherent.f_series(1.5, [0.3, 0.5 + 0.2j]))
    assert report["value_re"] == pytest.approx(expected.real, rel=1e-14)
    assert report["value_im"] == pytest.approx(expected.imag, rel=1e-14)


def test_json_is_canonical(capsys):
    _, out, _ = run(["formula-a", "--n", "1", "--k", "1", "--s", "0.5"], capsys)
    report = json.loads(out)
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_csv_flat_projection(capsys):
    _, out, _ = run(["formula-b", "--mu", "2", "--nu", "0", "--a", "2",
                     "--format", "csv"], capsys)
    lines = out.strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    assert "rel_err" in header and "params.mu" in header


def test_csv_rows_table(capsys):
    _, out, _ = run(["sample", "--n", "1", "--k", "1", "--budget", "5000",
                     "--format", "csv"], capsys)
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0] == "estimate_im" or "quantity" in lines[0]
    assert len(lines) > 10  # moments + angular modes + 10 CDF probes


def test_reports_are_byte_identical(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    argv = ["rou", "--n", "1", "--k", "1", "--cutoff", "3", "--mode", "montecarlo",
            "--budget", "20000", "--seed", "13", "--workers", "3"]
    assert cli.main(argv + ["--out", str(first)]) in (0, 2)
    assert cli.main(argv + ["--out", str(second)]) in (0, 2)
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert len(first.read_bytes()) > 0


def test_seed_resolution(capsys):
    assert cli.build_parser() is cli.build_parser()
    _, out, _ = run(["sample", "--n", "1", "--k", "1", "--budget", "1000"], capsys)
    assert json.loads(out)["seed"] == DEFAULT_SEED
    _, out, _ = run(["sample", "--n", "1", "--k", "1", "--budget", "1000",
                     "--seed", "9"], capsys)
    assert json.loads(out)["seed"] == 9


def test_the_environment_sets_no_seed(capsys, monkeypatch):
    """Only --seed moves the seed, so one command line prints the same bytes
    on every machine."""
    argv = ["sample", "--n", "1", "--k", "1", "--budget", "1000"]
    _, plain, _ = run(argv, capsys)
    monkeypatch.setenv("BGCS_SEED", "777")
    _, out, _ = run(argv, capsys)
    assert json.loads(out)["seed"] == DEFAULT_SEED == 20260823
    assert out == plain


def test_out_writes_file_only(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(["inner", "--k", "2", "--z", "0.5", "--zp", "0.5",
                        "--out", str(path)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["check"] == "inner_product"


def test_help_lists_parameters(capsys):
    for command in ("eval-f", "inner", "measure-check", "formula-a", "formula-b",
                    "rou", "sample", "trace"):
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "--format" in out and "--out" in out
    with pytest.raises(SystemExit):
        cli.main(["trace", "--help"])
    out = capsys.readouterr().out
    for flag in ("--seed", "--workers", "--budget", "--weights", "--cutoff"):
        assert flag in out


def test_import_loads_no_scipy():
    """scipy is a test-only dependency: importing the package and the CLI
    in a fresh interpreter must not load it, or every command starts slower."""
    code = ("import sys, bgcs, bgcs.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(bgcs.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"
