"""Command-line harness: artifacts, reproducibility, exit codes."""

import errno
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from heislab import ExperimentConfig, __version__, cli, parse_config
from heislab.cli import main, run

FAST = ["--set", "m = 400", "--set", "N = 50"]
# config echo lines heading every artifact, one per key
ECHO = len(fields(ExperimentConfig))


@pytest.fixture()
def runner():
    return CliRunner()


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


class TestWiring:
    def test_help_lists_subcommands(self, runner):
        res = runner.invoke(main, ["--help"])
        assert res.exit_code == 0
        for name in ("simulate", "heat-check", "lsi-scan",
                     "quotient-check", "distance", "levy-cf"):
            assert name in res.output

    def test_version(self, runner):
        res = runner.invoke(main, ["--version"])
        assert res.exit_code == 0 and __version__ in res.output

    def test_console_script_is_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "heislab.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0 and __version__ in proc.stdout

    def test_run_rejects_unknown_subcommand(self):
        assert run("frobnicate", ExperimentConfig()) == 2


class TestSimulate:
    def test_artifacts_and_content(self, runner, tmp_path):
        out = tmp_path / "sim"
        res = runner.invoke(main, ["simulate", *FAST, "--set", "t = 0.5, 1",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert "simulate: ok (4 rows)" in res.output

        report = json.loads(_read(out / "report.json"))
        assert report["schema_version"] == 11
        assert report["subcommand"] == "simulate"
        assert report["overall_pass"] is True
        assert len(report["config"]) == ECHO
        assert "m = 400" in report["config"]
        moments = report["results"]["moments"]
        assert len(moments) == 4
        assert {row["metric"] for row in moments} == {"hnorm_sq", "c_sq"}
        by_key = {(row["t"], row["metric"]): row for row in moments}
        assert by_key[(1.0, "hnorm_sq")]["expected"] == 2.0
        # the exact law's reference is the continuum one; N is not read
        assert by_key[(1.0, "c_sq")]["expected"] == 0.25
        # the results hold no copy of a configured value; the echo states each once
        assert set(report["results"]) == {"moments"}

        csv_lines = _read(out / "summary.csv").splitlines()
        echo = [ln for ln in csv_lines if ln.startswith("# ")]
        assert len(echo) == ECHO and "# m = 400" in echo
        header_idx = len(echo)
        assert csv_lines[header_idx] == "t,metric,mean,std_error,expected,z,pass"
        assert len(csv_lines) == header_idx + 1 + 4

        manifest = json.loads(_read(out / "manifest.json"))
        assert manifest["schema_version"] == 11
        assert set(manifest["versions"]) == {"python", "numpy", "scipy", "click", "package"}
        assert manifest["seed"] == 42
        assert "wall_time_s" in manifest and "generated_unix" in manifest
        assert manifest["config"] == report["config"] and "config_defaults" not in manifest
        # timing never leaks into the deterministic artifacts
        assert "wall_time" not in _read(out / "report.json")

    def test_dump_endpoints(self, runner, tmp_path):
        out = tmp_path / "sim"
        res = runner.invoke(main, ["simulate", *FAST, "--dump-endpoints",
                                   "--out", str(out)])
        assert res.exit_code == 0
        lines = _read(out / "endpoints.csv").splitlines()
        assert lines[ECHO] == "sample,w_1,w_2,c,theta"
        assert len(lines) == ECHO + 1 + 400
        report = json.loads(_read(out / "report.json"))
        assert report["results"]["endpoints_csv_ref"] == "endpoints.csv"
        assert "endpoints_t" not in report["results"]  # the endpoints are at the first t

    def test_default_out_dir_name(self, runner):
        with runner.isolated_filesystem():
            res = runner.invoke(main, ["simulate", *FAST])
            assert res.exit_code == 0
            assert Path("simulate-out/report.json").exists()


class TestReproducibility:
    def test_reruns_are_byte_identical(self, runner, tmp_path):
        args = ["simulate", *FAST, "--set", "seed = 7"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, [*args, "--out", str(a)]).exit_code == 0
        assert runner.invoke(main, [*args, "--out", str(b)]).exit_code == 0
        assert _read(a / "report.json") == _read(b / "report.json")
        assert _read(a / "summary.csv") == _read(b / "summary.csv")

    @pytest.mark.parametrize(
        "subcommand", ["simulate", "heat-check", "lsi-scan", "quotient-check", "levy-cf"]
    )
    def test_worker_count_does_not_change_bytes(self, runner, tmp_path, subcommand):
        # m >= 256, so the worker threads split the sample; exit 1 is a row
        # failing by chance (simulate's c_sq row at m = 512 does so about 1%
        # of the time), and both runs must agree on it
        base = [subcommand, "--set", "m = 512", "--set", "N = 20"]
        a, b = tmp_path / "serial", tmp_path / "threads"
        code = runner.invoke(main, [*base, "--out", str(a)]).exit_code
        assert code in (0, 1)
        assert runner.invoke(
            main, [*base, "--workers", "8", "--out", str(b)]
        ).exit_code == code
        names = sorted(p.name for p in a.iterdir() if p.name != "manifest.json")
        assert names == sorted(p.name for p in b.iterdir() if p.name != "manifest.json")
        for name in names:
            assert _read(a / name) == _read(b / name), name

    def test_config_file_plus_override(self, runner, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("m = 300\nN = 50\nseed = 9\n", encoding="utf-8")
        out = tmp_path / "o"
        res = runner.invoke(main, ["simulate", "--config", str(cfg_file),
                                   "--set", "m = 400", "--out", str(out)])
        assert res.exit_code == 0
        report = json.loads(_read(out / "report.json"))
        assert "m = 400" in report["config"] and "seed = 9" in report["config"]


class TestExitCodes:
    def test_failing_row_exits_one(self, runner, tmp_path):
        # |w|^2's entropy/energy ratio at t = 1 is about 1, far above a
        # log-Sobolev constant of 0.01
        out = tmp_path / "s"
        res = runner.invoke(main, [
            "lsi-scan", "--set", "m = 400", "--set", "dims = 1", "--set", "scan_forms = isotropic",
            "--set", "f = poly_radial", "--set", "c_ref = 0.01", "--out", str(out),
        ])
        assert res.exit_code == 1
        assert "FAIL" in res.output
        report = json.loads(_read(out / "report.json"))
        assert report["overall_pass"] is False
        assert report["results"]["cells"][0]["passed"] is False

    def test_unknown_key_exits_two(self, runner, tmp_path):
        # delta_t was the central-difference step of heat-check, k_window
        # the fiber window of distance and form the name of the form, which
        # the weights give; there is no scheme key, every subcommand samples
        # the exact law
        out = tmp_path / "o"
        for sub, item in (("simulate", "bogus = 1"), ("heat-check", "delta_t = 0.05"),
                          ("simulate", "scheme = bogus"), ("distance", "k_window = 2"),
                          ("simulate", "form = isotropic")):
            res = runner.invoke(main, [sub, "--set", item, "--out", str(out)])
            assert res.exit_code == 2
            assert "config error" in res.stderr
            assert f"unknown key {item.split(' = ')[0]!r}" in res.stderr
            assert not out.exists()

    def test_override_error_names_the_item(self, runner, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("m = 300\nN = 50\nseed = 9\n", encoding="utf-8")
        out = tmp_path / "o"
        res = runner.invoke(main, ["heat-check", "--config", str(cfg_file),
                                   "--set", "delta_t = 0.1", "--set", "m = many",
                                   "--set", "N =", "--set", "oops", "--out", str(out)])
        assert res.exit_code == 2
        assert res.stderr.splitlines() == [
            "config error: --set 'delta_t = 0.1': unknown key 'delta_t'",
            "config error: --set 'm = many': bad value for 'm': "
            "invalid literal for int() with base 10: 'many'",
            "config error: --set 'N =': key 'N' needs a value",
            "config error: --set 'oops': expected `key = value`, got 'oops'",
        ]
        assert not out.exists()
        # a line of the file is still named by its number
        cfg_file.write_text("m = 300\nN = 50\nbogus = 9\n", encoding="utf-8")
        res = runner.invoke(main, ["simulate", "--config", str(cfg_file), "--set", "m = 400"])
        assert res.exit_code == 2
        assert res.stderr == "config error: line 3: unknown key 'bogus'\n"

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_exits_two(self, runner, tmp_path, workers):
        out = tmp_path / "o"
        res = runner.invoke(main, ["simulate", *FAST, "--workers", workers, "--out", str(out)])
        assert res.exit_code == 2
        assert "--workers" in res.stderr
        assert not out.exists()

    def test_polygon_size_above_the_cap_exits_two(self, runner, tmp_path):
        # an uncapped K sizes the solver's (K + 1)-node arrays to match
        out = tmp_path / "o"
        res = runner.invoke(main, ["distance", "--set", "K = 100000000", "--out", str(out)])
        assert res.exit_code == 2
        assert res.stderr == "config error: K must be <= 100000\n"
        assert not out.exists()

    def test_sample_too_large_to_allocate_exits_two(self, runner, tmp_path):
        # the sampler's first np.empty asks for 8e17 bytes, more than any
        # address space holds, so it fails at once and allocates nothing
        out = tmp_path / "o"
        res = runner.invoke(main, ["simulate", "--set", "m = 100000000000000000",
                                   "--out", str(out)])
        assert res.exit_code == 2
        assert res.stderr.startswith("error: simulate: Unable to allocate ")
        assert not out.exists()

    def test_form_too_large_to_allocate_exits_two(self, runner, tmp_path):
        # building Omega at n = 10^17 fails at its first list, allocating nothing
        out = tmp_path / "o"
        res = runner.invoke(main, ["simulate", "--set", "n = 100000000000000000",
                                   "--out", str(out)])
        assert res.exit_code == 2
        assert "config error" in res.stderr and "n is too large to allocate" in res.stderr
        assert not out.exists()

    def test_non_finite_selector_parameter_exits_two(self, runner, tmp_path):
        # gauss_bump(inf) would otherwise run as the constant 1 and pass
        out = tmp_path / "o"
        res = runner.invoke(main, ["heat-check", *FAST, "--set", "f = gauss_bump(inf)",
                                   "--out", str(out)])
        assert res.exit_code == 2
        assert "config error" in res.stderr and "non-finite" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["1e-170", "1e200"])
    def test_degenerate_gauss_bump_exits_two(self, runner, tmp_path, sigma):
        # a sigma**4 of 0 would divide by zero, one of inf make the bump the constant 1
        out = tmp_path / "o"
        res = runner.invoke(main, ["heat-check", "--set", "m = 200", "--set", "N = 5",
                                   "--set", f"f = gauss_bump({sigma})", "--out", str(out)])
        assert res.exit_code == 2
        assert "config error" in res.stderr and "gauss_bump" in res.stderr
        assert not out.exists()

    def test_bump_flat_to_rounding_passes(self, runner, tmp_path):
        # gauss_bump(1e77) rounds to 1 on every sample, yet both sides of the
        # equation, about -1e-154, come from its exact partials
        out = tmp_path / "o"
        res = runner.invoke(main, ["heat-check", "--set", "m = 200", "--set", "N = 5",
                                   "--set", "f = gauss_bump(1e77)", "--out", str(out)])
        assert res.exit_code == 0, res.output
        row, = json.loads(_read(out / "report.json"))["results"]["heat_check"]
        assert row["pass"] is True
        assert 0.0 < abs(row["residual"]) < 1e-150

    def test_exact_law_has_no_walk_bias(self, runner, tmp_path):
        # the walk's (1 - 1/N) deficit in E c^2 fails vertical_sq at N = 20;
        # every subcommand samples the exact law and does not read N
        out = tmp_path / "o"
        res = runner.invoke(main, [
            "heat-check", "--set", "n = 8", "--set", "N = 20", "--set", "m = 20000",
            "--set", "t = 0.25, 1, 2.5", "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        rows = json.loads(_read(out / "report.json"))["results"]["heat_check"]
        assert len(rows) == 9 and all(row["pass"] for row in rows)

    def test_curved_bump_at_small_t_passes(self, runner, tmp_path):
        # gauss_bump is curved in t at small t, where d/dt along the dilation
        # must still match 0.5 E[L f] within the noise
        out = tmp_path / "o"
        res = runner.invoke(main, [
            "heat-check", "--set", "n = 8", "--set", "N = 20", "--set", "m = 20000",
            "--set", "seed = 20251203", "--set", "t = 0.25", "--set", "f = gauss_bump(1.0)",
            "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        row, = json.loads(_read(out / "report.json"))["results"]["heat_check"]
        assert row["pass"] is True and abs(row["residual"]) <= 3.0 * row["std_error"]

    # an overflow is reported once, as the error, with no RuntimeWarning before
    # it; the test settings turn any RuntimeWarning into a failure
    def test_overflowing_observable_exits_two(self, runner, tmp_path):
        out = tmp_path / "o"
        res = runner.invoke(main, ["heat-check", "--set", "m = 200", "--set", "N = 10",
                                   "--set", "f = exp_linear(1000)", "--out", str(out)])
        assert res.exit_code == 2
        assert "error: heat-check: d/dt exp_linear(1000) at t = 1 " in res.stderr
        assert "non-finite" in res.stderr and "overflowed" in res.stderr
        assert not out.exists()

    def test_overflowing_quotient_observable_exits_two(self, runner, tmp_path):
        # a row of nan/inf would otherwise blame quotient invariance
        out = tmp_path / "o"
        res = runner.invoke(main, ["quotient-check", "--set", "m = 200", "--set", "N = 5",
                                   "--set", "f = exp_linear(1000)", "--out", str(out)])
        assert res.exit_code == 2
        assert "error: quotient-check: exp_linear(1000) at t = 1 " in res.stderr
        assert "non-finite" in res.stderr and "overflowed" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("sub, extra, what", [
        ("simulate", [], "|w|^2 at t = 1e+308"),
        # one lambda, so the message does not hinge on which lambda's samples
        # overflow first
        ("levy-cf", ["--set", "lambdas = 0.5"], "cos(0.5 c) at t = 1e+308"),
        # every c^2 is finite, but the squares in its standard error are not;
        # the c_sq row would otherwise pass with an infinite standard error
        ("simulate", ["--set", "t = 1e150", "--set", "m = 2000"],
         "the mean and standard error of c^2 at t = 1e+150"),
    ], ids=["simulate", "levy-cf", "simulate-moments"])
    def test_overflowing_samples_exit_two(self, runner, tmp_path, sub, extra, what):
        # the moments and the characteristic function would otherwise be null
        # rows; |w|^2 and cos(0.5 c) are integrable, their samples overflow
        out = tmp_path / "o"
        res = runner.invoke(main, [sub, "--set", "t = 1e308", "--set", "m = 100", *extra,
                                   "--out", str(out)])
        assert res.exit_code == 2
        assert f"error: {sub}: {what} " in res.stderr
        assert "overflowed" in res.stderr and "integrable" not in res.stderr
        assert not out.exists()

    def test_missing_config_file_exits_two(self, runner):
        res = runner.invoke(main, ["simulate", "--config", "no/such/file.cfg"])
        assert res.exit_code == 2

    def test_aperiodic_quotient_function_exits_two(self, runner):
        res = runner.invoke(main, ["quotient-check", *FAST,
                                   "--set", "f = vertical_sq"])
        assert res.exit_code == 2
        assert "periodic" in res.stderr

    def test_unwritable_out_dir_exits_two(self, runner, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        # the --out flag is screened by the argument parser itself
        res = runner.invoke(main, ["simulate", *FAST, "--out", str(blocker)])
        assert res.exit_code == 2
        assert "Invalid value" in res.stderr
        # the config key reaches the artifact writer, which must also refuse
        res = runner.invoke(main, ["simulate", *FAST, "--set", f"out = {blocker}"])
        assert res.exit_code == 2
        assert "cannot write" in res.stderr


# the headers listed under "Artifacts" in the README
SUMMARY_HEADERS = {
    "simulate": "t,metric,mean,std_error,expected,z,pass",
    "heat-check": "t,f,residual,std_error,skew,ddt_mean,half_generator_mean,pass",
    "lsi-scan": "n,t,form,f,entropy,entropy_se,energy,energy_se,ratio,ratio_se,bound,pass",
    "quotient-check": "t,f,value_max_diff,gradsq_max_diff,l2_reduced,l2_lifted,"
                      "entropy_reduced,entropy_lifted,energy_reduced,energy_lifted,pass",
    "distance": "estimate,residual,winning_k,converged,pass",
    "levy-cf": "t,lambda,cos_mean,cos_se,sin_mean,sin_se,reference,pass",
}
SMALL = "m = 400\nN = 20\ndims = 1\nK = 8\n"


class TestSummaryHeaders:
    @pytest.mark.parametrize("subcommand", list(SUMMARY_HEADERS))
    def test_header_matches_readme(self, subcommand, tmp_path):
        assert run(subcommand, parse_config(SMALL), out=str(tmp_path)) in (0, 1)
        lines = _read(tmp_path / "summary.csv").splitlines()
        assert lines[ECHO] == SUMMARY_HEADERS[subcommand]
        assert len(lines) > ECHO + 1


class _HalfWrittenFile:
    """Writes half of what it is given, then fails like a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


class TestAtomicWrites:
    def test_failed_write_leaves_no_partial_artifact(self, tmp_path, monkeypatch):
        cfg = parse_config(SMALL)
        ref, rerun, fresh = tmp_path / "ref", tmp_path / "rerun", tmp_path / "fresh"
        for out in (ref, rerun):
            assert run("simulate", cfg, out=str(out), dump_endpoints=True) == 0
        opened = []

        def open_failing_second(path, *args, **kwargs):
            opened.append(path)
            fh = open(path, *args, **kwargs)
            return _HalfWrittenFile(fh) if len(opened) == 2 else fh

        monkeypatch.setattr(cli, "open", open_failing_second, raising=False)
        # the second artifact (summary.csv) fails halfway, in a fresh directory
        # and over the complete artifacts of an earlier run
        for out in (fresh, rerun):
            opened.clear()
            assert run("simulate", cfg, out=str(out), dump_endpoints=True) == 2
            names = sorted(os.listdir(out))
            assert "report.json" in names and "manifest.json" not in names
            for name in names:
                assert _read(out / name) == _read(ref / name), name


class TestLsiScan:
    def test_cells_and_summaries(self, runner, tmp_path):
        out = tmp_path / "scan"
        res = runner.invoke(main, [
            "lsi-scan", "--set", "m = 500", "--set", "N = 50",
            "--set", "dims = 1, 2", "--set", "f = exp_linear(0.5), poly_radial",
            "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        report = json.loads(_read(out / "report.json"))
        cells = report["results"]["cells"]
        assert len(cells) == 2 * 2 * 2  # dims x families x functions at one t
        expected_keys = {
            "form_name", "f_name", "n", "t", "entropy", "entropy_se",
            "energy", "energy_se", "ratio", "ratio_se", "bound",
            "passed", "status", "message",
        }
        assert set(cells[0]) == expected_keys
        summaries = report["results"]["summaries"]["1.0"]
        assert set(summaries) == {"per_dimension_max", "per_form_max"}
        assert set(summaries["per_dimension_max"]) == {"1", "2"}

        header = _read(out / "summary.csv").splitlines()[ECHO]
        assert header == ("n,t,form,f,entropy,entropy_se,energy,energy_se,"
                          "ratio,ratio_se,bound,pass")
        dat = _read(out / "max_ratio_vs_n_t0.dat").splitlines()
        assert dat[ECHO] == "# columns: n max_ratio"
        assert len(dat) == ECHO + 1 + 2  # echo + columns + one point per dim

    def test_max_summaries(self, runner, tmp_path):
        # gauss_bump(0.1) has an undefined ratio and exp_linear(1000)
        # overflows: the summaries skip both kinds of cell
        out = tmp_path / "scan"
        res = runner.invoke(main, [
            "lsi-scan", "--set", "m = 600", "--set", "dims = 1, 3", "--set", "t = 0.5, 1",
            "--set", "f = exp_linear(1000), gauss_bump(0.1), cos_theta, poly_radial",
            "--out", str(out),
        ])
        assert res.exit_code == 0, res.output
        results = json.loads(_read(out / "report.json"))["results"]
        cells = results["cells"]
        assert {cell["status"] for cell in cells} == {"ok", "ratio_undefined", "error"}
        for idx, t in enumerate((0.5, 1.0)):
            summary = results["summaries"][repr(t)]
            for key, table in (("n", "per_dimension_max"), ("f_name", "per_form_max")):
                largest = {}
                for cell in cells:
                    if cell["t"] == t and cell["ratio"] is not None:
                        k = str(cell[key])
                        largest[k] = max(largest.get(k, -math.inf), cell["ratio"])
                assert {k: row["ratio"] for k, row in summary[table].items()} == largest
            assert set(summary["per_form_max"]) == {"cos_theta", "poly_radial"}
            per_dim = summary["per_dimension_max"]
            dat = _read(out / f"max_ratio_vs_n_t{idx}.dat").splitlines()[ECHO + 1:]
            assert [tuple(map(float, line.split())) for line in dat] == [
                (float(n), per_dim[n]["ratio"]) for n in ("1", "3")]
        assert results["summaries"]["1.0"]["per_dimension_max"]["1"]["f"] == "poly_radial"


class TestQuotientCheck:
    def test_bitwise_rows(self, runner, tmp_path):
        out = tmp_path / "q"
        res = runner.invoke(main, ["quotient-check", *FAST, "--out", str(out)])
        assert res.exit_code == 0
        report = json.loads(_read(out / "report.json"))
        row = report["results"]["quotient_check"][0]
        assert row["f"] == "cos_theta"
        assert row["value_max_diff"] == 0.0 and row["gradsq_max_diff"] == 0.0
        assert row["entropy_reduced"] == row["entropy_lifted"]
        assert row["pass"] is True


class TestDistance:
    def test_full_group_target(self, runner, tmp_path):
        out = tmp_path / "d"
        res = runner.invoke(main, ["distance", "--set", "K = 16", "--out", str(out)])
        assert res.exit_code == 0
        report = json.loads(_read(out / "report.json"))
        assert abs(report["results"]["estimate"] - 5.0) <= 1e-3
        assert report["results"]["winning_k"] is None
        assert report["results"]["converged"] is True
        assert "fiber_candidates" not in report["results"]
        path_lines = _read(out / "path.csv").splitlines()
        assert path_lines[ECHO] == "node,w_1,w_2,c"
        assert len(path_lines) == ECHO + 1 + 17
        assert (out / "path_plane.dat").exists()

    def test_reduced_target_unwinds(self, runner, tmp_path):
        # theta = 2 pi - 0.05 is solved on G at c = theta - 2 pi, bit for bit
        theta = 2.0 * np.pi - 0.05
        base = ["distance", "--set", "K = 16", "--set", "target_w = 0, 0"]
        red, full = tmp_path / "red", tmp_path / "full"
        res = runner.invoke(main, [*base, "--set", "space = Gtilde",
                                   "--set", f"target_c = {theta!r}", "--out", str(red)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, [*base, "--set", f"target_c = {theta - 2.0 * np.pi!r}",
                                   "--out", str(full)])
        assert res.exit_code == 0, res.output
        results = json.loads(_read(red / "report.json"))["results"]
        plain = json.loads(_read(full / "report.json"))["results"]
        assert results["winning_k"] == -1 and plain["winning_k"] is None
        assert "fiber_candidates" not in results
        assert results["estimate"] == plain["estimate"] <= 0.81
        assert _read(red / "path.csv").splitlines()[ECHO:] == _read(full / "path.csv").splitlines()[ECHO:]

    def test_wrong_target_dimension_exits_two(self, runner):
        res = runner.invoke(main, ["distance", "--set", "target_w = 1, 2, 3"])
        assert res.exit_code == 2
        assert "target_w" in res.stderr


class TestLevyCf:
    def test_curve_against_reference(self, runner, tmp_path):
        out = tmp_path / "cf"
        res = runner.invoke(main, [
            "levy-cf", "--set", "m = 2000", "--set", "N = 100",
            "--set", "lambdas = 0.5, 1", "--out", str(out),
        ])
        assert res.exit_code == 0
        report = json.loads(_read(out / "report.json"))
        rows = report["results"]["char_function"]
        assert [row["lambda"] for row in rows] == [0.5, 1.0]
        assert all(row["pass"] for row in rows)
        assert rows[0]["reference"] == pytest.approx(
            1.0 / __import__("math").cosh(0.25), rel=1e-12)
        assert (out / "cf_curve_t0.dat").exists()
        assert (out / "cf_reference_t0.dat").exists()

    def test_reference_is_the_product_over_the_weights(self, runner, tmp_path):
        # the exact weights, not singular values that round them
        out = tmp_path / "cf"
        res = runner.invoke(main, [
            "levy-cf", "--set", "m = 200", "--set", "N = 5",
            "--set", "weights = 1.3, 0.7, 2.9", "--set", "lambdas = 1", "--out", str(out),
        ])
        assert res.exit_code in (0, 1), res.output
        row = json.loads(_read(out / "report.json"))["results"]["char_function"][0]
        a = np.array([1.3, 0.7, 2.9])
        assert (row["t"], row["lambda"]) == (1.0, 1.0)
        assert row["reference"] == float(np.prod(1.0 / np.cosh(a * 1.0 * 1.0 / 2.0)))
        # far out, cosh overflows to inf and the reference is 0, with no
        # warning; the truncation allowance is infinite there, wider than the 2
        # that separates any two values in [-1, 1], so no row has a verdict
        res = runner.invoke(main, ["levy-cf", "--set", "m = 2000", "--set", "t = 1e300",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = json.loads(_read(out / "report.json"))["results"]["char_function"]
        assert rows and all(row["reference"] == 0.0 for row in rows)
        assert all(row["pass"] is None for row in rows)
