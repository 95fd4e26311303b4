"""The traced bench mode: perfbench's tracer wraps the program's public
functions and profile methods, leaves every report unchanged and puts every
original back when it is uninstalled."""

import json
import sys
from pathlib import Path

import pytest

from rellich import cli, expr, geometry

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# a bump batch and a spline batch (every Ritz level of an estimate)
ARGVS = ["verify --catalog classical-rellich --n 5 --tests 2 --grid 500",
         "estimate --catalog classical-rellich --n 5 --budget 13"]


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    return tracing


def _attributes():
    """Every attribute the tracer may patch: the namespaces of the rellich
    modules and of the two classes whose methods it wraps."""
    owners = [m for n, m in sorted(sys.modules.items())
              if m is not None and (n == "rellich" or n.startswith("rellich."))]
    owners += [expr.Expr, geometry.RadialTestFunction]
    return {(owner.__name__, attr): value
            for owner in owners for attr, value in list(vars(owner).items())}


def _report(tmp_path, argv, name):
    out = tmp_path / name
    code = cli.main(argv.split() + ["-o", str(out)])
    report = json.loads(out.read_text())
    report.pop("timestamp")
    return code, report


@pytest.mark.parametrize("argv", ARGVS, ids=["verify", "estimate"])
def test_traced_verify_matches_untraced_and_restores(tmp_path, tracing, argv):
    plain = _report(tmp_path, argv, "plain.json")
    before = _attributes()
    rec = tracing.Recorder()
    tracer = tracing.Tracer(rec)
    tracer.install()
    try:
        rtf = geometry.RadialTestFunction
        for meth in ("value", "dvalue", "d2value"):
            assert rtf.__dict__[meth] is not before[("RadialTestFunction", meth)]
        assert cli.main is not before[("rellich.cli", "main")]
        traced = _report(tmp_path, argv, "traced.json")
    finally:
        tracer.uninstall()
    assert traced == plain
    assert rec.counters["verify.panels"] > 0
    after = _attributes()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
