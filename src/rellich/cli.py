"""Command-line front end.

Subcommands: check-pair, scan, verify, chain, solve-bessel, estimate,
catalog.  Every run emits one machine-readable report (JSON by default,
CSV as flattened per-test rows) with the schema

  {"command", "config": {...}, "space_form": {"n", "kappa", "R"},
   "scans": [{"target", "verdict", "min", "argmin", "boundary_limit_R"}],
   "tests": [{"id", "params", "lhs", "rhs", "margin", "budget"}],
   "verdict", "seed", "timestamp"}

and exits 0 on pass, 1 on fail/violated, 2 on inconclusive, 64 on usage
errors, 74 on I/O failure.  Reports are written atomically; with the
same configuration and seed the report is byte-identical up to the
timestamp field.  One exception: from --budget 157 on, ``estimate``
solves a Ritz level of 157 or more functions, which OpenBLAS runs on
several threads, so its bytes also depend on the BLAS thread count
(OPENBLAS_NUM_THREADS).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone
from typing import Optional

from . import catalog as cat
from . import pairs as pr
from . import sharpness as sh
from . import verify as vf
from .expr import DomainError, ExprError, parse
from .geometry import SpaceForm
from .pairs import PairSpec

__all__ = ["main", "build_parser", "format_report"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_IO = 74

# every role of every pair kind, plus the optional solution y of a Bessel pair
_INLINE_ROLES = tuple(r for roles in pr.ROLES.values() for r in roles) + ("y",)


def _finite(text: str) -> float:
    """A float flag's value; anything but a finite number is a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="rellich",
                description="Numerically certify Riccati-pair conditions and the "
                            "resulting Hardy/Rellich-type integral inequalities "
                            "on constant-curvature space forms.")
    sub = p.add_subparsers(dest="command", required=True)

    def family(sp):
        sp.add_argument("--n", type=int, default=5, help="dimension (default 5)")
        sp.add_argument("--kappa", type=_finite, default=None,
                        help="curvature parameter (default: entry-specific)")
        sp.add_argument("--lambda", dest="lam", type=_finite, default=0.0)
        sp.add_argument("--k", type=int, default=1, help="iteration depth")
        sp.add_argument("--R", type=float, default=None, help="radial domain bound")

    def common(sp, scans=False, quad=False, batch=False):
        sp.add_argument("--catalog", metavar="ID",
                        help=f"catalog entry id ({', '.join(cat.CATALOG_IDS)})")
        family(sp)
        sp.add_argument("--r", dest="r_param", type=_finite, default=None,
                        help="value for the DSL parameter r")
        sp.add_argument("--c", type=_finite, default=None,
                        help="override the potential constant c")
        if scans:
            sp.add_argument("--grid", type=int, default=pr.DEFAULT_GRID)
            sp.add_argument("--tol", type=float, default=pr.DEFAULT_RESIDUAL_TOL)
        if quad:
            sp.add_argument("--quad-tol", type=float, default=vf.DEFAULT_QUAD_TOL)
        sp.add_argument("--output", "-o", help="write the report to this path")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        for role in _INLINE_ROLES:
            sp.add_argument(f"--{role}", dest=f"expr_{role}", metavar="DSL",
                            help=f"inline expression for {role}")
        if batch:
            sp.add_argument("--tests", type=int, default=vf.BatchSpec.count)
            sp.add_argument("--seed", type=int, default=vf.BatchSpec.seed)
            sp.add_argument("--modes", default="0",
                            help="comma-separated angular modes to cycle, e.g. 0,1,2")

    sp = sub.add_parser("check-pair", help="scan the defining residual(s)")
    common(sp, scans=True)
    sp = sub.add_parser("scan", help="positivity-scan one target function")
    common(sp, scans=True)
    sp.add_argument("--target", required=True,
                    help="E1 | E2 | residual | and any expression role (W, V, Z, ...)")
    sp = sub.add_parser("verify", help="verify one inequality on a seeded batch")
    common(sp, scans=True, quad=True, batch=True)
    sp.add_argument("--shape", choices=vf.SHAPES, default=None)
    sp = sub.add_parser("chain", help="verify a chained inequality end to end")
    common(sp, scans=True, quad=True, batch=True)
    sp.set_defaults(shape="chain")
    sp = sub.add_parser("solve-bessel", help="disconjugacy certificate for a potential/pair")
    common(sp)
    sp.add_argument("--t0", type=float, default=None)
    sp.add_argument("--t1", type=float, default=None)
    sp = sub.add_parser("estimate", help="estimate the best constant of a shape")
    common(sp, quad=True)
    sp.add_argument("--shape", choices=("delta-vs-gradrad", "gradrad-vs-usq", "chain"),
                    default="delta-vs-gradrad")
    sp.add_argument("--budget", type=int, default=500,
                    help="most basis functions of a Ritz level (default 500)")
    sp = sub.add_parser("catalog", help="list or show catalog entries")
    sp.add_argument("action", choices=("list", "show"))
    sp.add_argument("id", nargs="?")
    family(sp)
    return p


# ---------------------------------------------------------------------------
# pair sources


def _inline_pair(args) -> Optional[PairSpec]:
    provided = {role: getattr(args, f"expr_{role}", None) for role in _INLINE_ROLES}
    provided = {k: v for k, v in provided.items() if v is not None}
    if not provided:
        return None
    for kind, roles in pr.ROLES.items():
        if all(r in provided for r in roles):
            exprs = {r: parse(provided[r]) for r in roles}
            if kind == "bessel-pair" and "y" in provided:
                exprs["y"] = parse(provided["y"])
            kappa = args.kappa if args.kappa is not None else 0.0
            params = {"lambda": args.lam, "k": float(args.k), "kappa": kappa}
            if args.R is not None:
                params["R"] = args.R
            if args.r_param is not None:
                params["r"] = args.r_param
            constant = args.c if args.c is not None else (
                0.25 if kind == "bessel-potential" else 1.0)
            return PairSpec(kind=kind, exprs=exprs, constant=constant, params=params)
    raise ValueError(
        "inline expressions do not form a complete pair "
        f"(need {' | '.join(','.join(roles) for roles in pr.ROLES.values())})")


def _catalog_entry(args, entry_id: str) -> cat.CatalogEntry:
    """The entry built from the flags; a knob the family does not read (a
    --kappa, --c or --r, a nonzero --lambda, a --k other than 1) is a usage
    error rather than a config echo.  catalog show takes no --c or --r."""
    c, r = getattr(args, "c", None), getattr(args, "r_param", None)
    knobs = cat.family_knobs(entry_id)
    for flag, knob, given in (("--kappa", "kappa", args.kappa is not None),
                              ("--lambda", "lam", args.lam != 0.0),
                              ("--k", "k", args.k != 1),
                              ("--c", "c", c is not None),
                              ("--r", "r", r is not None)):
        if given and knob not in knobs:
            raise ValueError(f"{flag} is not a knob of catalog family {entry_id!r}, "
                             f"which does not read it")
    given = {name: value for name, value in (("kappa", args.kappa), ("R", args.R), ("c", c))
             if value is not None}
    return cat.build_entry(entry_id, n=args.n, lam=args.lam, k=args.k, **given)


def _derive(args, derive, *argv):
    """derive(*argv), a pair or chain derived from the entry; a catalog
    potential that --c leaves unverified is a usage error naming --c."""
    try:
        return derive(*argv)
    except ValueError as exc:
        if args.catalog is None or args.c is None:
            raise
        raise ValueError(f"--c {args.c:g} is not the constant of catalog potential "
                         f"{args.catalog!r} ({exc}): its pairs need the family's c, so "
                         f"only solve-bessel takes a non-default --c (check-pair and scan "
                         f"read it on the potential alone)") from None


def _resolve(args):
    """(entry, space form) from --catalog or the inline flags.  An inline pair
    is the entry "inline", whose one spec is keyed by its kind and whose
    lambda is --lambda."""
    inline = _inline_pair(args)
    if (args.catalog is None) == (inline is None):
        raise ValueError("exactly one pair source required: --catalog or inline expressions")
    if inline is not None:
        R = args.R if args.R is not None else math.inf
        sf = SpaceForm(args.n, inline.params["kappa"], R)
        entry = cat.CatalogEntry("inline", {"lambda": args.lam}, {inline.kind: inline}, sf)
        return entry, sf
    entry = _catalog_entry(args, args.catalog)
    R = args.R if args.R is not None else entry.space_form.R
    return entry, SpaceForm(args.n, entry.space_form.kappa, R)


# ---------------------------------------------------------------------------
# report assembly


def _sf_dict(sf: SpaceForm) -> dict:
    return {"n": sf.n, "kappa": sf.kappa, "R": sf.R}


def _scan_row(s: pr.Scan) -> dict:
    return {"target": s.target, "verdict": s.verdict, "min": s.min,
            "argmin": s.argmin, "boundary_limit_R": s.boundary_limit_R}


def _test_row(t: vf.TestRecord) -> dict:
    return {"id": t.id, "params": t.params, "lhs": t.lhs, "rhs": t.rhs,
            "margin": t.margin, "budget": t.budget}


def _report(command: str, config: dict, sf: SpaceForm, scans, tests,
            verdict: str, seed: int) -> dict:
    return {
        "command": command,
        "config": config,
        "space_form": _sf_dict(sf),
        "scans": [_scan_row(s) for s in scans],
        "tests": [_test_row(t) for t in tests],
        "verdict": verdict,
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def format_report(report: dict, fmt: str = "json") -> str:
    """Serialize a report; JSON is schema-stable and key-sorted, CSV flattens
    the per-test rows."""
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["command", "verdict", "seed", "id", "family", "support_lo",
                     "support_hi", "alpha", "l", "lhs", "rhs", "margin", "budget"])
    for t in report["tests"]:
        p = t["params"]
        writer.writerow([report["command"], report["verdict"], report["seed"],
                         t["id"], p.get("family"), p.get("support_lo"),
                         p.get("support_hi"), p.get("alpha"), p.get("l"),
                         t["lhs"], t["rhs"], t["margin"], t["budget"]])
    return buf.getvalue()


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_VERDICT_EXIT = {"pass": EXIT_PASS, "nonnegative": EXIT_PASS,
                 "fail": EXIT_FAIL, "violated": EXIT_FAIL,
                 "inconclusive": EXIT_INCONCLUSIVE,
                 "inconclusive-near-boundary": EXIT_INCONCLUSIVE}


def _config_dict(args, extra: dict) -> dict:
    """Every parsed flag but the output's path and format, then extra."""
    skip = {"output", "format", "command"}
    return {**{k: v for k, v in vars(args).items() if k not in skip}, **extra}


# ---------------------------------------------------------------------------
# command handlers


def _cmd_check_pair(args):
    entry, sf = _resolve(args)
    scans, results = [], {}
    for name, p in sorted(entry.specs.items()):
        s = pr.scan_positivity(pr.residual_terms(p), sf, grid=args.grid,
                               bindings=p.bindings(sf), tol=args.tol,
                               target=f"residual({name})")
        results[name] = {"equality": s.equality, "max_abs_relative": s.max_abs_relative}
        scans.append(s)
    verdicts = {s.verdict for s in scans}
    verdict = ("fail" if "violated" in verdicts else
               "pass" if verdicts == {"nonnegative"} else "inconclusive")
    config = _config_dict(args, {"results": results})
    return verdict, _report("check-pair", config, sf, scans, [], verdict,
                            vf.BatchSpec.seed)


def _scan_target_terms(args, entry, sf):
    """The terms and bindings of --target on the pair it names: E1 and E2 on
    the entry's dual, a role on the first spec that has it, anything else on
    the first spec."""
    if args.target in ("E1", "E2"):
        p = _derive(args, cat.entry_pair, entry, "dual", sf)
    else:
        specs = list(entry.specs.values())
        p = next((p for p in specs if args.target in p.exprs), specs[0])
    return pr.condition_terms(p, args.target), p.bindings(sf)


def _cmd_scan(args):
    entry, sf = _resolve(args)
    terms, bindings = _scan_target_terms(args, entry, sf)
    s = pr.scan_positivity(terms, sf, grid=args.grid, bindings=bindings, tol=args.tol,
                           target=args.target)
    config = _config_dict(args, {
        "sign_changes": [list(bracket) for bracket in s.sign_changes],
        "boundary_limit_0": s.boundary_limit_0})
    return s.verdict, _report("scan", config, sf, [s], [], s.verdict, vf.BatchSpec.seed)


def _batch(args) -> vf.BatchSpec:
    # anything but a plain integer stays text, for BatchSpec to reject
    modes = tuple(int(m) if m.strip().isdecimal() else m for m in args.modes.split(","))
    return vf.BatchSpec(count=args.tests, seed=args.seed, modes=modes)


def _quad_tol(args) -> float:
    if not (args.quad_tol > 0 and math.isfinite(args.quad_tol)):
        raise ValueError(f"--quad-tol must be a finite tolerance > 0, got {args.quad_tol:g}")
    return args.quad_tol


def _cmd_verify(args):
    """verify, and chain as verify of the shape chain."""
    quad_tol = _quad_tol(args)
    entry, sf = _resolve(args)
    shape = args.shape or entry.default_shape
    if shape is None:
        kind = next(iter(entry.specs.values())).kind
        shape = next((s for s, row in vf.SHAPES.items() if row.kind == kind),
                     "delta-vs-gradrad")
    case = vf.InequalityCase(shape=shape, sf=sf, batch=_batch(args),
                             pair=_derive(args, cat.entry_pair, entry,
                                          vf.SHAPES[shape].kind, sf))
    rep = vf.verify_case(case, quad_tol=quad_tol, grid=args.grid, tol=args.tol)
    config = _config_dict(args, {"notes": list(rep.notes), **rep.config})
    command = "chain" if shape == "chain" else "verify"
    return rep.verdict, _report(command, config, sf, rep.scans, rep.tests,
                                rep.verdict, rep.seed)


def _cmd_solve_bessel(args):
    if (args.t0 is None) != (args.t1 is None):
        missing = "--t1" if args.t1 is None else "--t0"
        raise ValueError(f"an interval needs both --t0 and --t1: {missing} is missing")
    if args.t0 is not None and not 0 < args.t0 < args.t1 < math.inf:
        raise ValueError(f"--t0 and --t1 must satisfy 0 < t0 < t1 < inf, "
                         f"got --t0 {args.t0:g} --t1 {args.t1:g}")
    entry, sf = _resolve(args)
    p = next((p for p in entry.specs.values()
              if p.kind in ("bessel-potential", "bessel-pair")), None)
    if p is None:
        raise ValueError("solve-bessel needs a Bessel potential or pair")
    interval = None if args.t0 is None else (args.t0, args.t1)
    rep = pr.disconjugacy_check(p, interval=interval, n=sf.n)
    scan = rep.scan("disconjugacy")
    verdict = {"nonnegative": "pass", "violated": "fail"}.get(scan.verdict, "inconclusive")
    config = _config_dict(args, {
        "positive_solution": rep.positive_solution,
        "first_zero": rep.first_zero,
        "log_t_first_zero": rep.log_t_first_zero,
        "status": rep.status, "steps": rep.steps})
    return verdict, _report("solve-bessel", config, sf, [scan], [], verdict,
                            vf.BatchSpec.seed)


def _cmd_estimate(args):
    quad_tol = _quad_tol(args)
    if args.budget < 1:
        raise ValueError(f"--budget must be at least 1 basis function, got {args.budget}")
    entry, sf = _resolve(args)
    pair, claimed = _derive(args, sh.sharpness_problem, entry, args.shape, sf)
    est = sh.estimate_constant(sf, args.shape, pair, claimed=claimed,
                               budget=args.budget, tol=quad_tol)
    verdict = "pass"
    if not math.isfinite(est.estimate):
        verdict = "inconclusive"  # no level gave a finite quotient
    elif claimed is not None and est.estimate < claimed - 1e-6:
        verdict = "fail"  # an estimate below a certified constant flags a bug
    config = _config_dict(args, {
        "estimate": est.estimate, "claimed": est.claimed,
        "gap_ratio": est.gap_ratio, "evaluations": est.evaluations,
        "minimizer": est.params,
        "label": est.label})
    return verdict, _report("estimate", config, sf, [], [], verdict, vf.BatchSpec.seed)


def _cmd_catalog(args):
    if args.action == "list":
        sys.stdout.write("\n".join(cat.CATALOG_IDS) + "\n")
        return EXIT_PASS
    if not args.id:
        raise ValueError("catalog show needs an entry id")
    entry = _catalog_entry(args, args.id)
    doc = {
        "id": entry.id,
        "params": entry.params,
        "provenance": entry.provenance,
        "default_shape": entry.default_shape,
        "space_form": _sf_dict(entry.space_form),
        "specs": {name: {"kind": p.kind, "constant": p.constant,
                         "exprs": {role: str(e) for role, e in sorted(p.exprs.items())},
                         "note": p.note}
                  for name, p in sorted(entry.specs.items())},
        "chain": None if entry.chain is None else {
            "label": entry.chain.label,
            "links": [{"alpha": l.alpha, "label": l.label, "kind": l.spec.kind}
                      for l in entry.chain.links],
            "meta": entry.chain.meta,
        },
    }
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return EXIT_PASS


_HANDLERS = {
    "check-pair": _cmd_check_pair,
    "scan": _cmd_scan,
    "verify": _cmd_verify,
    "chain": _cmd_verify,
    "solve-bessel": _cmd_solve_bessel,
    "estimate": _cmd_estimate,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call; build_parser() stays a
    fresh one."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "catalog":
            return _cmd_catalog(args)
        verdict, report = _HANDLERS[args.command](args)
    except vf.NonconvergenceError as exc:
        sys.stderr.write(f"rellich: inconclusive at --quad-tol {args.quad_tol:g}: {exc}\n")
        return EXIT_INCONCLUSIVE
    except DomainError as exc:
        sys.stderr.write(f"rellich: inconclusive: {exc}\n")
        return EXIT_INCONCLUSIVE
    except (ValueError, ExprError) as exc:
        sys.stderr.write(f"rellich: {exc}\n")
        return EXIT_USAGE
    text = format_report(report, args.format)
    try:
        _write_output(text, args.output)
    except OSError as exc:
        sys.stderr.write(f"rellich: cannot write report: {exc}\n")
        return EXIT_IO
    return _VERDICT_EXIT.get(verdict, EXIT_INCONCLUSIVE)


if __name__ == "__main__":
    sys.exit(main())
