"""Command-line interface: exit codes, report schema, determinism."""

import hashlib
import json
import re

import pytest

from rellich import catalog as cat
from rellich import verify as vf
from rellich.catalog import CATALOG_IDS
from rellich.cli import (EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_IO, EXIT_PASS,
                         EXIT_USAGE, format_report, main)
from rellich.verify import shape_sides

_SCHEMA_TOP = {"command", "config", "space_form", "scans", "tests", "verdict",
               "seed", "timestamp"}


def _run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(list(argv) + ["-o", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


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

    @pytest.mark.parametrize("argv", [
        ["--Z", "sqrt(0.5-t)", "--t0", "0.1", "--t1", "0.9"],
        ["--Z", "log(t-0.5)"],
    ])
    def test_potential_outside_its_domain_is_inconclusive(self, tmp_path, argv):
        # Z is undefined on part of the interval, so the mpmath pass stops
        # with a domain error instead of going complex
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
    ])
    def test_derived_pair_is_estimated(self, tmp_path, source):
        # verify derives these pairs by the change of functions; so does estimate
        code, rep = _run(tmp_path, "estimate", *source.split(), "--budget", "25")
        assert code == EXIT_PASS
        assert rep["config"]["estimate"] > 0 and rep["config"]["claimed"] is None

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
# chain and estimate integrate through verify.Sides, and no change there may
# move a report byte unnoticed.
_REPORT_DIGESTS = {
    "verify --catalog classical-rellich --n 6 --shape delta-vs-gradrad --tests 3 --grid 500":
        "99632a81f07b30e812d7a4b8379a3b58f2e9a002a4b6e27db98a48a2026de9e6",
    "verify --catalog hyp-interp --n 5 --kappa 1 --shape delta-vs-grad --modes 0,1 "
    "--tests 3 --grid 500":
        "fc8552b9d970ce1c632670a13feb133d0cc39cbcee21cee2fb4698fb608e10f7",
    "verify --catalog hyp-lower-1 --n 5 --kappa 1 --shape gradrad-vs-usq --tests 3 "
    "--grid 500":
        "365b2d8d871ebbc401457a2cd9d3521c908bb127fef3692382e9c098d345c960",
    "verify --catalog iterlog --k 1 --n 6 --R 1 --shape gradrad-vs-usq --tests 2 --grid 500":
        "5b572e857977c7c6712bc05add5039f6e72e27f3ecef6a02b1f168781e3353f1",
    "chain --catalog hyp-final --n 5 --kappa 1 --tests 2 --grid 500":
        "e41b1e995ed3ea28eb0f4973d1a1db0e0e764a82006188faf675be3abbaade91",
    "chain --catalog iterlog --k 1 --n 6 --R 1 --tests 2 --grid 500":
        "7ee957e5b0ccbd64d1981e99d16f47599e9fce3a510c3dcd6f2d07a218d3ea32",
    "estimate --catalog classical-rellich --n 6 --shape delta-vs-gradrad --budget 25":
        "2c84199f6bcbc14f7f7c8716d3b285a34e8df5986591b4c35f6752efa8c6286c",
    "estimate --catalog classical-rellich --n 6 --shape gradrad-vs-usq --budget 25":
        "fee05c9a572df73d53a2734d68e6d646a1a2e27a2c0598a2f0329fab73fdb70d",
    "estimate --catalog hyp-final --n 5 --kappa 1 --shape chain --budget 25":
        "3482ad287f0161204db3fcf9b038189ca26d9e1f058abbc8c8eaccf35c705793",
    "estimate --catalog iterlog --k 1 --n 6 --R 1 --shape chain --budget 25":
        "3d8aa2cdb2342ba93ffbf83cbba6a45de8d9b5a4599f302c6d74adba065b408c",
    "verify --catalog hyp-final --n 5 --kappa 1 --tests 2 --grid 500":
        "e41b1e995ed3ea28eb0f4973d1a1db0e0e764a82006188faf675be3abbaade91",
    "verify --n 6 --H n/(2*t) --v 1 --V n^2/(4*t^2) --shape gradrad-vs-usq --tests 2 "
    "--grid 500":
        "a31114aceadd016b596e08eea71d0a6d5b43c258430244776ca44bd421d6cf56",
    "estimate --catalog hyp-interp --n 5 --kappa 1 --budget 25":
        "2f4c0693ca63cf627dda6a3f3ea97e5f86d32a9559a9c8733390d417c100bec2",
}


@pytest.mark.parametrize("argv", sorted(_REPORT_DIGESTS))
def test_report_bytes_are_pinned(tmp_path, argv):
    out = tmp_path / "report.json"
    main(argv.split() + ["-o", str(out)])
    body = "".join(line for line in out.read_text().splitlines(True)
                   if not line.startswith('  "timestamp": '))
    assert hashlib.sha256(body.encode()).hexdigest() == _REPORT_DIGESTS[argv]


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
