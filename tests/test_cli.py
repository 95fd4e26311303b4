"""Command-line interface: exit codes, report schema, determinism."""

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import rellich
from rellich import catalog as cat
from rellich import cli
from rellich import verify as vf
from rellich.catalog import CATALOG_IDS
from rellich.cli import (EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_IO, EXIT_PASS,
                         EXIT_USAGE, format_report, main)
from rellich.expr import DomainError, parse
from rellich.geometry import SpaceForm
from rellich.pairs import PairSpec
from rellich.verify import shape_sides

_SCHEMA_TOP = {"command", "config", "space_form", "scans", "tests", "verdict",
               "seed", "timestamp"}


def _run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(list(argv) + ["-o", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def _fresh_process(argv, timeout=120, **env):
    """`python -m rellich.cli argv` in a new process, with env added."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rellich.__file__)),
               **env)
    return subprocess.run([sys.executable, "-m", "rellich.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


# the catalog pairs whose defining residual holds with equality
_EQUALITY_CASES = (
    [f"--catalog classical-rellich --n {n}" for n in (5, 6, 7, 8)]
    + [f"--catalog iterlog --k {k} --n {n} --R 1" for k in (1, 2, 3) for n in (5, 6)]
    + [f"--catalog ell-family --k {k} --n {n} --R 1" for k in range(1, 7) for n in (5, 6)]
    + [f"--catalog {entry} --n 5 --kappa 1" for entry in
       ("hyp-interp", "hyp-lower-1", "hyp-lower-2", "hyp-lower-3", "hyp-final")])


class TestOneScanner:
    @pytest.mark.parametrize("source", _EQUALITY_CASES)
    def test_residual_scan_agrees_with_check_pair(self, tmp_path, source):
        scan, _ = _run(tmp_path, "scan", *source.split(), "--target", "residual")
        check, _ = _run(tmp_path, "check-pair", *source.split())
        assert scan == check == EXIT_PASS

    @pytest.mark.parametrize("source", ["--catalog classical-rellich --n 6",
                                        "--catalog hyp-interp --n 5 --kappa 1"])
    def test_e1_row_is_the_verify_row(self, tmp_path, source):
        _, scanned = _run(tmp_path, "scan", *source.split(), "--target", "E1")
        _, verified = _run(tmp_path, "verify", *source.split(),
                           "--shape", "delta-vs-gradrad", "--tests", "1")
        row = next(s for s in verified["scans"] if s["target"] == "E1")
        assert scanned["scans"] == [row]

    def test_overflowed_negative_sample_is_a_violation(self, tmp_path):
        code, rep = _run(tmp_path, "scan", "--n", "5", "--R", "1", "--H", "n/(2*t)",
                         "--v", "1", "--V=-exp(1000/t)", "--target", "V")
        assert code == EXIT_FAIL
        assert rep["scans"][0]["verdict"] == "violated"

    @pytest.mark.parametrize("knob", ["--grid 0", "--grid 1", "--tol -1", "--tol nan",
                                      "--tol inf"])
    def test_bad_scan_knob_is_a_usage_error(self, tmp_path, capsys, knob):
        name, value = knob.split()
        code, _ = _run(tmp_path, "check-pair", "--catalog", "classical-rellich",
                       "--n", "6", name, value)
        assert code == EXIT_USAGE
        assert name[2:] in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check-pair", "scan --target residual",
                                         "solve-bessel"])
    def test_iterlog_depth_beyond_float_range(self, tmp_path, capsys, command):
        code, _ = _run(tmp_path, *command.split(), "--catalog", "iterlog", "--k", "4",
                       "--R", "1")
        assert code == EXIT_USAGE
        assert "k <= 3" in capsys.readouterr().err


class TestCheckPair:
    def test_classical_passes_with_equality(self, tmp_path):
        code, rep = _run(tmp_path, "check-pair", "--catalog", "classical-rellich",
                         "--n", "6")
        assert code == EXIT_PASS
        assert set(rep.keys()) == _SCHEMA_TOP
        assert rep["verdict"] == "pass"
        assert rep["space_form"] == {"n": 6, "kappa": 0.0, "R": None} or \
            rep["space_form"]["n"] == 6
        for res in rep["config"]["results"].values():
            assert res["equality"] is True

    def test_inline_pair(self, tmp_path):
        code, rep = _run(tmp_path, "check-pair", "--n", "7",
                         "--H", "n/(2*t)", "--v", "1", "--V", "n^2/(4*t^2)")
        assert code == EXIT_PASS
        assert rep["config"]["results"]["dual"]["equality"] is True

    def test_inadmissible_inline_pair_fails(self, tmp_path):
        code, rep = _run(tmp_path, "check-pair", "--n", "5",
                         "--H", "n/(2*t)", "--v", "1", "--V", "n^2/(2*t^2)")
        assert code == EXIT_FAIL
        assert rep["verdict"] == "fail"


class TestScan:
    def test_failure_mode_detected(self, tmp_path):
        code, rep = _run(tmp_path, "scan", "--catalog", "ell-family", "--k", "6",
                         "--n", "5", "--R", "1", "--target", "E1")
        assert code == EXIT_FAIL
        scan = rep["scans"][0]
        assert scan["target"] == "E1"
        assert scan["verdict"] == "violated"
        assert scan["boundary_limit_R"] < 0
        assert rep["config"]["sign_changes"]

    def test_negative_power_of_zero_is_a_division(self, tmp_path, capsys):
        # bisection lands on t = 0.5 exactly; (t-0.5)^-1 is 1/(t-0.5) there
        outcomes = []
        for V in ("(t-0.5)^-1", "1/(t-0.5)"):
            code, _ = _run(tmp_path, "scan", "--n", "5", "--R", "1", "--H", "n/(2*t)",
                           "--v", "1", "--V", V, "--target", "V")
            outcomes.append((code, re.findall(r"'(.+?)'", capsys.readouterr().err)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] == ["/"]

    def test_classical_e1_nonnegative(self, tmp_path):
        code, rep = _run(tmp_path, "scan", "--catalog", "classical-rellich",
                         "--n", "5", "--target", "E1")
        assert code == EXIT_PASS
        assert rep["scans"][0]["verdict"] == "nonnegative"

    def test_scan_requires_known_target(self, tmp_path):
        code, _ = _run(tmp_path, "scan", "--catalog", "classical-rellich",
                       "--n", "5", "--target", "Q")
        assert code == EXIT_USAGE


class TestVerify:
    def test_hyp_interp(self, tmp_path):
        code, rep = _run(tmp_path, "verify", "--catalog", "hyp-interp", "--n", "5",
                         "--kappa", "1", "--lambda", "0", "--tests", "8",
                         "--seed", "7")
        assert code == EXIT_PASS
        assert rep["verdict"] == "pass"
        assert len(rep["tests"]) == 8
        for row in rep["tests"]:
            assert set(row.keys()) == {"id", "params", "lhs", "rhs", "margin", "budget"}
            assert row["margin"] >= -row["budget"]

    def test_e2_gate_inconclusive(self, tmp_path):
        code, rep = _run(tmp_path, "verify", "--catalog", "classical-rellich",
                         "--n", "7", "--shape", "delta-vs-grad", "--tests", "3",
                         "--modes", "0,1")
        assert code == EXIT_INCONCLUSIVE
        assert rep["verdict"] == "inconclusive"

    def test_inline_potential_matches_catalog(self, tmp_path):
        # an inline potential is keyed by its kind, a catalog one by role
        inline = ["--n", "6", "--z", "sqrt(logk(1,r/t))", "--Z", "1/(t^2*logk(1,r/t)^2)",
                  "--r", "2.718281828459045", "--R", "1"]
        code, rep = _run(tmp_path, "verify", *inline, "--tests", "5")
        code_cat, rep_cat = _run(tmp_path, "verify", "--catalog", "iterlog", "--k", "1",
                                 "--n", "6", "--R", "1", "--tests", "5")
        assert code == code_cat == EXIT_PASS
        assert rep["verdict"] == rep_cat["verdict"] == "pass"
        assert rep["scans"] == rep_cat["scans"]
        assert [s["target"] for s in rep["scans"]] == ["v", "V", "residual", "E1"]
        assert rep["scans"][3]["min"] == pytest.approx(4.5)
        code, rep = _run(tmp_path, "scan", *inline, "--target", "E1")
        assert code == EXIT_PASS
        assert rep["scans"][0]["min"] == pytest.approx(4.5)

    def test_empty_batch_valid_document(self, tmp_path):
        code, rep = _run(tmp_path, "verify", "--catalog", "classical-rellich",
                         "--n", "5", "--tests", "0")
        assert code == EXIT_PASS
        assert rep["tests"] == []
        assert rep["scans"]


class TestChain:
    def test_iterlog_chain(self, tmp_path):
        code, rep = _run(tmp_path, "chain", "--catalog", "iterlog", "--k", "1",
                         "--n", "6", "--R", "1", "--tests", "4")
        assert code == EXIT_PASS
        ends = [t for t in rep["tests"] if t["id"].endswith(":end")]
        assert len(ends) == 4
        assert rep["config"]["meta"]["addon_constant"] == pytest.approx(2.5)

    def test_classical_chain(self, tmp_path):
        code, rep = _run(tmp_path, "chain", "--catalog", "classical-rellich",
                         "--n", "6", "--tests", "4")
        assert code == EXIT_PASS

    def test_inline_potential_chains_with_its_lambda(self, tmp_path, capsys):
        inline = ["--n", "6", "--z", "sqrt(logk(1,r/t))", "--Z", "1/(t^2*logk(1,r/t)^2)",
                  "--r", "2.718281828459045", "--R", "1", "--tests", "2"]
        code, rep = _run(tmp_path, "chain", *inline, "--lambda", "2")
        code_cat, rep_cat = _run(tmp_path, "chain", "--catalog", "iterlog", "--k", "1",
                                 "--n", "6", "--R", "1", "--tests", "2")
        assert code == code_cat == EXIT_PASS
        assert ([s["target"] for s in rep["scans"]]
                == [s["target"] for s in rep_cat["scans"]])
        assert [t["margin"] for t in rep["tests"]] == pytest.approx(
            [t["margin"] for t in rep_cat["tests"]], rel=1e-12)
        # without --lambda, lambda = 0 and Z'/Z = -lambda/t + f leaves f < 0
        (tmp_path / "no-lambda").mkdir()
        code, rep = _run(tmp_path / "no-lambda", "chain", *inline)
        assert code == EXIT_USAGE and rep is None
        assert "f >= 0 fails on spot check" in capsys.readouterr().err


class TestSolveBessel:
    def test_supercritical_constant(self, tmp_path):
        code, rep = _run(tmp_path, "solve-bessel", "--catalog", "iterlog",
                         "--k", "1", "--R", "1", "--c", "0.3")
        assert code == EXIT_FAIL
        assert rep["config"]["positive_solution"] is False
        assert rep["config"]["first_zero"] > 0

    @pytest.mark.parametrize("given,missing", [("--t0", "--t1"), ("--t1", "--t0")])
    def test_interval_needs_both_ends(self, tmp_path, capsys, given, missing):
        code, rep = _run(tmp_path, "solve-bessel", "--catalog", "iterlog", "--k", "1",
                         "--R", "1", given, "0.1")
        assert code == EXIT_USAGE
        assert rep is None
        assert missing in capsys.readouterr().err

    @pytest.mark.parametrize("t0,t1", [("0.1", "inf"), ("0.1", "nan"), ("nan", "0.9"),
                                       ("0.9", "0.1"), ("0", "0.9")])
    def test_interval_must_be_finite_and_ordered(self, tmp_path, capsys, t0, t1):
        # a pass with --t1 inf would stand for no integration at all
        code, rep = _run(tmp_path, "solve-bessel", "--catalog", "iterlog", "--k", "1",
                         "--R", "1", "--c", "0.3", "--t0", t0, "--t1", t1)
        assert code == EXIT_USAGE
        assert rep is None
        err = capsys.readouterr().err
        assert "--t0" in err and "--t1" in err

    def test_inline_potential(self, tmp_path):
        code, rep = _run(tmp_path, "solve-bessel",
                         "--z", "sqrt(logk(1, r/t))",
                         "--Z", "1/(t^2*logk(1,r/t)^2)",
                         "--c", "0.25", "--R", "1", "--r", "2.718281828459045")
        assert code == EXIT_PASS
        assert rep["config"]["positive_solution"] is True

    def test_best_constant(self, tmp_path):
        code, rep = _run(tmp_path, "solve-bessel", "--catalog", "iterlog",
                         "--k", "1", "--R", "1")
        assert code == EXIT_PASS
        assert rep["config"]["positive_solution"] is True

    @pytest.mark.parametrize("Z", ["t^-2*1e300", "exp(1/t)"])
    def test_non_finite_step_is_inconclusive(self, tmp_path, Z):
        # the state overflows in the first steps (t^-2*1e300), or the
        # coefficient does not fit in a float (exp(1/t)): a NaN step error
        # must be rejected, not read as a converged step that ends the run
        code, rep = _run(tmp_path, "solve-bessel", "--z", "t", "--Z", Z, "--R", "1",
                         "--t0", "1e-3", "--t1", "0.5")
        assert code == EXIT_INCONCLUSIVE
        assert rep["config"]["status"] == "inconclusive"
        assert rep["config"]["positive_solution"] is False
        assert rep["config"]["steps"] < 50

    def test_deep_start_out_of_float_range_ends_at_once(self):
        # the first coefficient at t = e^(-2e6) needs exp(e^(2e6)); mpmath's
        # exp saturates to inf there instead of computing it for minutes,
        # so the run is inconclusive before its first step
        done = _fresh_process(["solve-bessel", "--z", "t", "--Z", "exp(1/t)", "--R", "1"],
                              timeout=20)
        assert done.returncode == EXIT_INCONCLUSIVE
        config = json.loads(done.stdout)["config"]
        assert config["status"] == "inconclusive" and config["steps"] == 0

    @pytest.mark.parametrize("argv", [
        ["--Z", "sqrt(0.5-t)", "--t0", "0.1", "--t1", "0.9"],
        ["--Z", "log(t-0.5)"],
    ])
    def test_potential_outside_its_domain_is_inconclusive(self, tmp_path, argv):
        # Z is undefined on part of the interval, so the coefficients fail
        # there in float and again on ExtFloat, instead of going complex
        code, rep = _run(tmp_path, "solve-bessel", "--z", "t", "--R", "1", *argv)
        assert code == EXIT_INCONCLUSIVE
        assert rep["verdict"] == "inconclusive"
        assert rep["config"]["status"] == "inconclusive"
        assert rep["scans"][0]["verdict"] == "inconclusive"


class TestEstimate:
    def test_hardy_estimate(self, tmp_path):
        code, rep = _run(tmp_path, "estimate", "--catalog", "classical-rellich",
                         "--n", "5", "--shape", "gradrad-vs-usq",
                         "--budget", "200")
        assert code == EXIT_PASS
        assert rep["config"]["claimed"] == pytest.approx(2.25)
        assert rep["config"]["estimate"] >= 2.25 - 1e-6

    def test_no_finite_quotient_is_inconclusive(self, tmp_path):
        # every probe's quadrature fails at this tolerance, so nothing is estimated
        code, rep = _run(tmp_path, "estimate", "--catalog", "classical-rellich", "--n", "6",
                         "--budget", "20", "--quad-tol", "1e-30")
        assert code == EXIT_INCONCLUSIVE
        assert rep["verdict"] == "inconclusive"
        assert rep["config"]["estimate"] == float("inf")

    @pytest.mark.parametrize("shape", ["gradrad-vs-usq", "chain"])
    def test_pair_of_the_wrong_kind_is_a_usage_error(self, tmp_path, shape):
        # an inline dual pair has no chain, and a Bessel pair without y yields
        # no dual, so no primal either
        source = {"chain": ["--H", "n/(2*t)", "--v", "1", "--V", "n^2/(4*t^2)"],
                  "gradrad-vs-usq": ["--X", "1", "--Y", "1/t^2"]}[shape]
        code, rep = _run(tmp_path, "estimate", "--n", "6", *source, "--shape", shape,
                         "--budget", "20")
        assert code == EXIT_USAGE
        assert rep is None

    @pytest.mark.parametrize("source", [
        "--catalog hyp-final --n 5 --kappa 1 --shape gradrad-vs-usq",
        "--catalog hyp-lower-1 --n 5 --kappa 1 --shape delta-vs-gradrad",
        "--catalog iterlog --k 1 --n 6 --R 1 --shape delta-vs-gradrad",
        # its minimizer lives near t = 1e-6, where both sides of a profile
        # scaled to a largest coefficient of 1 fall below the degenerate floor
        "--catalog iterlog --k 1 --n 6 --R 1 --shape gradrad-vs-usq",
    ])
    def test_derived_pair_is_estimated(self, tmp_path, source):
        # verify derives these pairs by the change of functions; so does estimate
        code, rep = _run(tmp_path, "estimate", *source.split(), "--budget", "25")
        assert code == EXIT_PASS
        assert rep["config"]["estimate"] > 0 and rep["config"]["claimed"] is None

    def test_bytes_do_not_depend_on_blas_threads_up_to_budget_156(self):
        # at most 77 functions per Ritz level: OpenBLAS factors them on one
        # thread whatever its setting (from --budget 157 on it does not)
        argv = ["estimate", "--catalog", "classical-rellich", "--n", "6", "--budget", "156"]
        digests = set()
        for threads in ("1", "2"):
            done = _fresh_process(argv, OPENBLAS_NUM_THREADS=threads)
            assert done.returncode == EXIT_PASS
            digests.add(hashlib.sha256(_without_timestamp(done.stdout).encode()).hexdigest())
        assert len(digests) == 1

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_is_a_usage_error(self, tmp_path, capsys, budget):
        code, rep = _run(tmp_path, "estimate", "--catalog", "classical-rellich", "--n", "6",
                         f"--budget={budget}")
        assert code == EXIT_USAGE
        assert rep is None
        assert "--budget" in capsys.readouterr().err


class TestCatalogCommand:
    def test_list(self, capsys):
        assert main(["catalog", "list"]) == EXIT_PASS
        out = capsys.readouterr().out
        assert "classical-rellich" in out and "hyp-final" in out

    def test_show(self, capsys):
        assert main(["catalog", "show", "hyp-interp", "--n", "5",
                     "--kappa", "1"]) == EXIT_PASS
        doc = json.loads(capsys.readouterr().out)
        assert doc["id"] == "hyp-interp"
        assert "dual" in doc["specs"]

    def test_show_unknown(self, capsys):
        assert main(["catalog", "show", "nope"]) == EXIT_USAGE


class TestUsageAndIO:
    def test_unknown_catalog_id(self, tmp_path):
        code, _ = _run(tmp_path, "check-pair", "--catalog", "nope")
        assert code == EXIT_USAGE

    def test_missing_pair_source(self, tmp_path):
        code, _ = _run(tmp_path, "check-pair", "--n", "5")
        assert code == EXIT_USAGE

    def test_both_pair_sources(self, tmp_path):
        code, _ = _run(tmp_path, "check-pair", "--catalog", "classical-rellich",
                       "--H", "1/t", "--v", "1", "--V", "1/t^2")
        assert code == EXIT_USAGE

    def test_bad_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--nope"])
        assert err.value.code == EXIT_USAGE

    def test_bad_dsl(self, tmp_path):
        code, _ = _run(tmp_path, "check-pair", "--H", "n/(2*", "--v", "1",
                       "--V", "1/t^2")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("command", ["verify", "chain"])
    def test_quadrature_nonconvergence_is_inconclusive(self, tmp_path, capsys, command):
        code, rep = _run(tmp_path, command, "--catalog", "classical-rellich", "--n", "6",
                         "--tests", "2", "--quad-tol", "1e-30")
        assert code == EXIT_INCONCLUSIVE
        assert rep is None
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "quadrature" in err and "--quad-tol" in err

    def test_domain_error_is_the_one_a_test_loop_meets_first(self, tmp_path, capsys):
        # V is out of domain on a band narrower than the scan grid's step,
        # which the quadrature nodes of several tests (not the first) hit
        V = "n^2/(4*t^2)*(1+1e-12*sqrt((t-159.0817)^2-0.0078))"
        inline = ["--n", "5", "--H", "n/(2*t)", "--v", "1", "--V", V]
        code, rep = _run(tmp_path, "verify", *inline, "--tests", "12", "--seed", "1")
        assert code == EXIT_INCONCLUSIVE
        assert rep is None
        sf = SpaceForm(5, 0.0)
        spec = PairSpec(kind="dual", exprs={"H": parse("n/(2*t)"), "v": parse("1"),
                                             "V": parse(V)})
        sides = shape_sides("delta-vs-gradrad", spec, sf)
        failures = []
        for i, u in enumerate(vf.generate_batch(sf, vf.BatchSpec(count=12, seed=1))):
            try:
                sides.integrals(sf, u)
            except DomainError as exc:
                failures.append((i, str(exc)))
        assert len(failures) > 1 and failures[0][0] > 0
        assert capsys.readouterr().err == f"rellich: inconclusive: {failures[0][1]}\n"

    @pytest.mark.parametrize("command", ["verify", "chain", "estimate"])
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_bad_quad_tol_is_a_usage_error(self, tmp_path, capsys, monkeypatch, command,
                                           value):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr("rellich.verify.integrate", no_quadrature)
        code, rep = _run(tmp_path, command, "--catalog", "classical-rellich", "--n", "6",
                         f"--quad-tol={value}")
        assert code == EXIT_USAGE
        assert rep is None
        assert "--quad-tol" in capsys.readouterr().err

    def test_domain_error_while_scanning_is_inconclusive(self, tmp_path, capsys):
        code, rep = _run(tmp_path, "scan", "--n", "5", "--R", "1", "--H", "n/(2*t)",
                         "--v", "1", "--V", "log(t-1)", "--target", "V")
        assert code == EXIT_INCONCLUSIVE
        assert rep is None
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "'log'" in err

    def test_unbound_parameter_is_a_usage_error(self, tmp_path):
        code, _ = _run(tmp_path, "scan", "--n", "5", "--R", "1", "--H", "n/(2*t)",
                       "--v", "1", "--V", "r/t^2", "--target", "V")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("command", ["verify", "chain"])
    @pytest.mark.parametrize("knob", ["--tests=-3", "--modes=,", "--modes=", "--modes=0,a",
                                      "--modes=1,-1"])
    def test_bad_batch_knob_is_a_usage_error(self, tmp_path, capsys, command, knob):
        code, rep = _run(tmp_path, command, "--catalog", "classical-rellich", "--n", "6",
                         knob)
        assert code == EXIT_USAGE
        assert rep is None
        assert knob.split("=")[0] in capsys.readouterr().err

    def test_io_failure(self):
        code = main(["check-pair", "--catalog", "classical-rellich", "--n", "5",
                     "-o", "/nonexistent-dir/report.json"])
        assert code == EXIT_IO


class TestFormatting:
    def _report(self, tmp_path):
        _, rep = _run(tmp_path, "verify", "--catalog", "classical-rellich",
                      "--n", "5", "--tests", "4", "--seed", "42")
        return rep

    def test_json_roundtrip_field_for_field(self, tmp_path):
        rep = self._report(tmp_path)
        assert json.loads(format_report(rep, "json")) == rep

    def test_csv_flattens_tests(self, tmp_path):
        rep = self._report(tmp_path)
        text = format_report(rep, "csv")
        lines = text.strip().splitlines()
        assert len(lines) == 1 + len(rep["tests"])
        assert lines[0].startswith("command,verdict,seed,id")

    def test_determinism_modulo_timestamp(self, tmp_path):
        a = self._report(tmp_path)
        b = self._report(tmp_path)
        a.pop("timestamp"), b.pop("timestamp")
        assert format_report(a, "json") == format_report(b, "json")

    def test_report_carries_reproduction_context(self, tmp_path):
        rep = self._report(tmp_path)
        cfg = rep["config"]
        assert cfg["quad_tol"] == 1e-10
        assert cfg["scan_grid"] == 10000
        assert rep["seed"] == 42
        assert re.match(r"\d{4}-\d{2}-\d{2}T", rep["timestamp"])


# SHA-256 of each report without its timestamp line: verify in every shape,
# chain and estimate integrate through verify.Sides, solve-bessel reports the
# disconjugacy ODE, and no change there may move a report byte unnoticed.
_REPORT_DIGESTS = {
    "verify --catalog classical-rellich --n 6 --shape delta-vs-gradrad --tests 3 --grid 500":
        "4b894cf3606768ea130e9b36838ff542e87f3599153a8956c3baea8b11ee09c4",
    "verify --catalog hyp-interp --n 5 --kappa 1 --shape delta-vs-grad --modes 0,1 "
    "--tests 3 --grid 500":
        "2f4726943033649b2e93393b69e64e24929b467c2e5b31de825e1346eeb0e94a",
    # the CSV rows of the same run: family and alpha columns, two modes
    "verify --catalog hyp-interp --n 5 --kappa 1 --shape delta-vs-grad --modes 0,1 "
    "--tests 3 --grid 500 --format csv":
        "8c5670da63ab114543f0c77e8f24ae65f9accfb85ad27168ecf345eba6ef2bd6",
    "verify --catalog hyp-lower-1 --n 5 --kappa 1 --shape gradrad-vs-usq --tests 3 "
    "--grid 500":
        "5034ffa2b8d25975b4bc0dbf56c8110700d4b64866290e56728c445691895f67",
    "verify --catalog iterlog --k 1 --n 6 --R 1 --shape gradrad-vs-usq --tests 2 --grid 500":
        "2dea4403d49793fbf28c0149999fb6bc84f2506b5db16f23a46a3abd85d05783",
    "chain --catalog hyp-final --n 5 --kappa 1 --tests 2 --grid 500":
        "f65cb4109fced11ea106c0cca9f0827f083830278d456b574af94b9700250733",
    "chain --catalog iterlog --k 1 --n 6 --R 1 --tests 2 --grid 500":
        "ccafeb444745ab6bffcf6c39419d5384fc8f169b38c2203be1c1b08d3aabca67",
    "estimate --catalog classical-rellich --n 6 --shape delta-vs-gradrad --budget 25":
        "a50775f6ecc3c1f65cba453fb01b093e822e66b5c60626cb4825ed266505cf45",
    "estimate --catalog classical-rellich --n 6 --shape gradrad-vs-usq --budget 25":
        "eeee69b41b59b0b35ce0829e8411eb7804f4eb2ca44fe23576a24151bed9e82d",
    "estimate --catalog hyp-final --n 5 --kappa 1 --shape chain --budget 25":
        "733f928bc8181e5bf1bf9f38073c2a81f8875001d17fed41ebe0ff2a1416607b",
    "estimate --catalog iterlog --k 1 --n 6 --R 1 --shape chain --budget 25":
        "99497267adb238c25d6d7491bc21e65a229b86c55ea16b264d7c407d3a6c4f8c",
    "verify --catalog hyp-final --n 5 --kappa 1 --tests 2 --grid 500":
        "f65cb4109fced11ea106c0cca9f0827f083830278d456b574af94b9700250733",
    "verify --n 6 --H n/(2*t) --v 1 --V n^2/(4*t^2) --shape gradrad-vs-usq --tests 2 "
    "--grid 500":
        "f509a7d888f2bd6cad5a3cb7ed19be15244b00db36ead33a09c9f10fa692e165",
    "estimate --catalog hyp-interp --n 5 --kappa 1 --budget 25":
        "44efee05c2a9b8af2e96be434f983db903f5b6d96b0e88c55ec1b3054135f2e2",
    # the disconjugacy rows carry steps, first_zero and log_t_first_zero: the
    # deep start (ExtFloat coefficients below e^-120) at the best and a
    # super-critical constant, and an explicit interval wholly in float
    "solve-bessel --catalog iterlog --k 1 --R 1":
        "5c96adc3b4ecbdb92e742b53f1921af8517ef830bfb8100e39cc7b1674c7624a",
    "solve-bessel --catalog iterlog --k 1 --R 1 --c 0.3":
        "65e394bd5d8c0330c4cffc637ae75752d6da6261af9d9f65899ab45e13cd78db",
    "solve-bessel --catalog ell-family --k 3 --R 1":
        "7d33b39765583f1558d7edfc9dc7c4ef7a31e26c5411ff61fb81399e1e023e01",
    "solve-bessel --catalog ell-family --k 3 --R 1 --c 0.3":
        "22284df67b30672381a254d763143675c3bcd6cb384d9816111c974adb068530",
    "solve-bessel --catalog iterlog --k 1 --R 1 --t0 1e-6 --t1 0.999":
        "59c12b7634225ba40509aea5aaf47a869425bf4913c2ebfe92726198950e5962",
    # batch-workload shapes at seed 15, whose batches hold supports with
    # b/a > 32 (log-substituted panels) beside linear ones; the first mixes
    # modes 0, 1, 2 and exits 2 on its E2 scan with a report
    "verify --catalog classical-rellich --n 7 --shape delta-vs-grad --modes 0,1,2 "
    "--tests 12 --grid 500 --seed 15":
        "ef644fbdaebcecb435008a2127e6aba95ca7585cc3ac812b0c75c0c7fe67a808",
    "verify --catalog classical-rellich --n 5 --shape gradrad-vs-usq --tests 12 --grid 500 "
    "--seed 15":
        "ad6bb22e34acf5cf983ba266d99f067b5fe45138f1ef18cf79c3df2a28adeeda",
    "chain --catalog classical-rellich --n 8 --tests 6 --grid 500 --seed 15":
        "b54ba6e16d1dde65aba90802e6222daa31fb1c56597e56e21c1366fa14bb13d5",
    "verify --catalog hyp-lower-2 --n 5 --kappa 1 --tests 12 --grid 500 --seed 15":
        "a621b8543346327767736a6eb936370b64e2ccea2496b808148078c78adf177a",
}


@pytest.mark.parametrize("argv", sorted(_REPORT_DIGESTS))
def test_report_bytes_are_pinned(tmp_path, argv):
    out = tmp_path / "report.json"
    main(argv.split() + ["-o", str(out)])
    body = "".join(line for line in out.read_text().splitlines(True)
                   if not line.startswith('  "timestamp": '))
    assert hashlib.sha256(body.encode()).hexdigest() == _REPORT_DIGESTS[argv]


def _without_timestamp(text: str) -> str:
    return "".join(line for line in text.splitlines(True)
                   if not line.startswith('  "timestamp": '))


def test_one_parser_per_process(capsys, monkeypatch):
    # main builds its parser once; a usage error (argparse's and one of the
    # handlers'), a catalog listing and a pinned report then read as they do
    # from a fresh process
    built, build = [], cli.build_parser

    def counting_build():
        built.append(1)
        return build()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build)
    report = ("verify --catalog classical-rellich --n 6 --shape delta-vs-gradrad --tests 3 "
              "--grid 500")
    commands = ["verify --shape nope", "verify --catalog classical-rellich --n 6 --tests -1",
                "catalog list", report]
    for argv in commands:
        try:
            code = main(argv.split())
        except SystemExit as exc:
            code = exc.code
        got = capsys.readouterr()
        fresh = _fresh_process(argv.split())
        assert code == fresh.returncode
        assert _without_timestamp(got.out) == _without_timestamp(fresh.stdout)
        assert got.err == fresh.stderr
    assert len(built) == 1
    assert hashlib.sha256(_without_timestamp(got.out).encode()).hexdigest() == \
        _REPORT_DIGESTS[report]
    cli._parser.cache_clear()
    assert build() is not build()


class _Stop(Exception):
    """Raised by a spy once it has the pair a command would run."""


_SOURCES = {
    "classical-rellich": "--n 6", "iterlog": "--k 1 --n 6 --R 1",
    "ell-family": "--k 2 --n 5 --R 1", "hyp-interp": "--n 5 --kappa 1",
    "hyp-lower-1": "--n 5 --kappa 1", "hyp-lower-2": "--n 5 --kappa 1",
    "hyp-lower-3": "--n 5 --kappa 1", "hyp-final": "--n 5 --kappa 1",
}


def _pair_run(tmp_path, monkeypatch, command, entry, shape):
    """The (shape, pair, space form) that command hands to verify_case or
    estimate_constant, or None when it exits 64 first."""
    seen = []

    def spy_case(case, **kwargs):
        seen.append((case.shape, case.pair, case.sf))
        raise _Stop

    def spy_estimate(sf, shape, pair, **kwargs):
        seen.append((shape, pair, sf))
        raise _Stop

    monkeypatch.setattr("rellich.verify.verify_case", spy_case)
    monkeypatch.setattr("rellich.sharpness.estimate_constant", spy_estimate)
    argv = [command, "--catalog", entry, *_SOURCES[entry].split(), "--shape", shape]
    try:
        code, _ = _run(tmp_path, *argv)
    except _Stop:
        return seen[0]
    assert code == EXIT_USAGE
    return None


def _sides_text(run):
    shape, pair, sf = run
    s = shape_sides(shape, pair, sf)
    return str(s.weight), s.lhs, str(s.density), s.rhs, s.bindings


@pytest.mark.parametrize("shape", ["delta-vs-gradrad", "gradrad-vs-usq", "chain"])
@pytest.mark.parametrize("entry", CATALOG_IDS)
def test_verify_and_estimate_run_the_same_sides(tmp_path, monkeypatch, entry, shape):
    verified = _pair_run(tmp_path, monkeypatch, "verify", entry, shape)
    estimated = _pair_run(tmp_path, monkeypatch, "estimate", entry, shape)
    assert (verified is None) == (estimated is None)
    if verified is None:
        return
    if (entry, shape) == ("classical-rellich", "gradrad-vs-usq"):
        # the one exception: the classical Hardy constant is estimated on its
        # own pair, not on the chain's primal link that verify checks
        hardy = cat.classical_euclidean(6).specs["hardy"]
        assert _sides_text(estimated) == _sides_text((shape, hardy, estimated[2]))
        assert _sides_text(verified) != _sides_text(estimated)
        return
    assert _sides_text(verified) == _sides_text(estimated)


# the rows each shape gates on, in report order
_GATES = {
    "delta-vs-gradrad": ["v", "V", "residual", "E1"],
    "delta-vs-grad": ["v", "V", "residual", "E2"],
    "gradrad-vs-usq": ["w", "W", "residual"],
}


@pytest.mark.parametrize("shape", ["delta-vs-gradrad", "delta-vs-grad", "gradrad-vs-usq",
                                   "chain"])
@pytest.mark.parametrize("entry", sorted(_SOURCES))
def test_report_scans_are_the_shape_gates(tmp_path, monkeypatch, entry, shape):
    pairs, real = [], vf.verify_case

    def spy(case, **kwargs):
        pairs.append(case.pair)
        return real(case, **kwargs)

    monkeypatch.setattr("rellich.verify.verify_case", spy)
    code, rep = _run(tmp_path, "verify", "--catalog", entry, *_SOURCES[entry].split(),
                     "--shape", shape, "--tests", "0", "--grid", "500", "--modes", "0,1")
    if not pairs:
        assert code == EXIT_USAGE and rep is None
        return
    pair = pairs[0]
    if shape == "chain":
        expected = _GATES["delta-vs-gradrad"] + [
            f"{link.label}-{'residual' if link.spec.kind == 'primal' else 'disconjugacy'}"
            for link in pair.links]
    else:
        expected = [g + "(signed-override)" if g == "W" and pair.allow_signed_W else g
                    for g in _GATES[shape]]
    assert [s["target"] for s in rep["scans"]] == expected
