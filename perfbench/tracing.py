"""Span recorder and per-layer metrics for the traced run.

Spans are recorded from the benchmark's own files: ``install`` replaces the
public functions of each rellich module with timing wrappers, in every
module that imported them by name, and ``uninstall`` puts the originals
back.  A span is (name, start, end, parent span, job id); spans stay in
memory and are written out once, at the end.  Self time is a span's
duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("expr", "geometry", "pairs", "catalog", "verify", "sharpness", "cli")

# Node constructors run once per tree node while trees are built; they are
# part of the caller's work, not calls across a layer boundary.
_EXPR_SKIP = {"const", "var_t", "param", "add", "sub", "mul", "div", "pow_", "neg"}

# Inclusive times of these groups count only outermost spans (members nest).
GROUPS = {
    "pairs.construct": {"pairs.from_bessel_potential", "pairs.primal_to_dual",
                        "pairs.dual_to_primal", "pairs.bessel_pairs_from_potential",
                        "pairs.from_bessel_pair"},
    "catalog.build": {"catalog.build_entry", "catalog.chain_from_potential"},
    "geometry.profile": {"geometry.RadialTestFunction.value",
                         "geometry.RadialTestFunction.dvalue",
                         "geometry.RadialTestFunction.d2value"},
}


class Recorder:
    """In-memory spans plus counters gathered at the same boundaries.

    Calls, inclusive and self times are derived from the span arrays once,
    after the run (``totals``), so a span costs only its array appends."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.job_id = -1
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self._paused = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def pause(self, seconds: float) -> None:
        """Hide harness work (node counting) from every open span."""
        self._paused += seconds

    def enter(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.start))
        self.name.append(nid)
        self.job.append(self.job_id)
        self.end.append(math.nan)
        self.start.append(self.now())

    def exit(self) -> None:
        self.end[self._stack.pop()] = self.now()

    def span_count(self) -> int:
        return len(self.start)

    def arrays(self):
        """(name id, parent span, duration) per span."""
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.end) - np.frombuffer(self.start))

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: calls, inclusive time and self time (inclusive
        time minus the time of direct children)."""
        name, parent, dur = self.arrays()
        n = len(self.names)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        calls = np.bincount(name, minlength=n)
        incl = np.bincount(name, weights=dur, minlength=n)
        own = np.bincount(name, weights=dur - child, minlength=n)
        return (Counter(dict(zip(self.names, calls.tolist()))),
                Counter(dict(zip(self.names, incl.tolist()))),
                Counter(dict(zip(self.names, own.tolist()))))

    def _mask(self, members) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n in members]
        return np.isin(np.frombuffer(self.name, dtype=np.int32), ids)

    def ancestor_in(self, members) -> np.ndarray:
        """Per span, the nearest enclosing span named in ``members``, or -1."""
        _, parent, _ = self.arrays()
        hit = self._mask(members)
        anc = parent.copy()
        while True:
            climb = np.nonzero(anc >= 0)[0]
            climb = climb[~hit[anc[climb]]]
            if climb.size == 0:
                return anc
            anc[climb] = parent[anc[climb]]

    def group_inclusive(self, members) -> float:
        """Summed duration of member spans that have no member ancestor."""
        _, _, dur = self.arrays()
        outer = self._mask(members) & (self.ancestor_in(members) < 0)
        return float(dur[outer].sum())

    def save(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32))


def _tree_size(e) -> int:
    """Nodes a tree walk visits (shared subtrees counted at every use)."""
    count, stack = 0, [e]
    while stack:
        node = stack.pop()
        count += 1
        for attr in ("child", "left", "right"):
            sub = getattr(node, attr, None)
            if sub is not None:
                stack.append(sub)
    return count


class Tracer:
    """Installs wrappers that record spans and counters into a Recorder."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._patches: list[tuple[object, str, object]] = []
        self._sizes: dict[int, tuple[object, int]] = {}

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name, after=None):
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.exit()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _size(self, e) -> int:
        hit = self._sizes.get(id(e))
        if hit is not None and hit[0] is e:
            return hit[1]
        t0 = time.perf_counter()
        size = _tree_size(e)
        self._sizes[id(e)] = (e, size)
        if len(self._sizes) > 4096:           # trees die with their job
            self._sizes.clear()
            self._sizes[id(e)] = (e, size)
        self.rec.pause(time.perf_counter() - t0)
        return size

    def _evaluate(self, fn):
        rec, c = self.rec, self.rec.counters

        @functools.wraps(fn)
        def evaluate(node, bindings):
            t = bindings.get("t")
            size = self._size(node)
            if isinstance(t, np.ndarray):
                kind = "vec"
                c["expr.eval_vec.points"] += t.size
                c["expr.eval_vec.node_points"] += size * t.size
            elif type(t).__module__.startswith("mpmath"):
                kind = "mp"
            else:
                kind = "scalar"
                c["expr.eval_scalar.nodes"] += size
            c["expr.nodes"] += size
            rec.enter(f"expr.eval_{kind}")
            try:
                return fn(node, bindings)
            finally:
                rec.exit()

        return evaluate

    def _profile(self, fn, name):
        rec, c = self.rec, self.rec.counters

        @functools.wraps(fn)
        def profile(u, t):
            c["geometry.profile.points"] += np.size(t)
            rec.enter(name)
            try:
                return fn(u, t)
            finally:
                rec.exit()

        return profile

    def _integrate(self, fn, nonconvergence):
        rec, c = self.rec, self.rec.counters

        def counted(density):
            @functools.wraps(density)
            def wrapped(t):
                c["verify.density.points"] += np.size(t)
                rec.enter("verify.density")
                try:
                    return density(t)
                finally:
                    rec.exit()
            return wrapped

        @functools.wraps(fn)
        def integrate(sf, density, *args, **kwargs):
            rec.enter("verify.integrate")
            try:
                result = fn(sf, counted(density), *args, **kwargs)
            except nonconvergence:
                c["verify.nonconvergence"] += 1
                raise
            finally:
                rec.exit()
            c["verify.panels"] += result.subintervals
            return result

        return integrate

    def _estimate_done(self, est):
        c = self.rec.counters
        c["sharpness.attempts"] += est.evaluations
        if est.gap_ratio:
            c["sharpness.gap_jobs"] += 1
            c["sharpness.log_gap"] += math.log(est.gap_ratio)

    def _quotient_done(self, q):
        if math.isfinite(q):
            self.rec.counters["sharpness.finite_quotients"] += 1

    # -- installation -----------------------------------------------------

    def _replace(self, original, wrapper, modules) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        from rellich import cli, expr, geometry, pairs, sharpness, verify

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "rellich" or n.startswith("rellich."))]
        special = {
            pairs.scan_positivity: lambda f: self._span(
                f, "pairs.scan_positivity",
                lambda r: self.rec.counters.update({"pairs.scan_positivity.points": r.grid_size})),
            pairs.disconjugacy_check: lambda f: self._span(
                f, "pairs.disconjugacy",
                lambda r: self.rec.counters.update({"pairs.disconjugacy.steps": r.steps})),
            verify.integrate: lambda f: self._integrate(f, verify.NonconvergenceError),
            sharpness.estimate_constant: lambda f: self._span(
                f, "sharpness.estimate_constant", self._estimate_done),
            sharpness.rayleigh_quotient: lambda f: self._span(
                f, "sharpness.quotient", self._quotient_done),
            cli.main: lambda f: self._span(f, "cli.main"),
        }

        for mod in modules:
            if mod.__name__ == "rellich":
                continue
            layer = mod.__name__.split(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or (layer == "expr" and attr in _EXPR_SKIP)):
                    continue
                make = special.get(fn)
                wrapper = make(fn) if make else self._span(fn, f"{layer}.{attr}")
                self._replace(fn, wrapper, modules)

        self._patch_method(expr.Expr, "evaluate", self._evaluate(expr.Expr.evaluate))
        self._patch_method(expr.Expr, "diff", self._span(expr.Expr.diff, "expr.diff"))
        rtf = geometry.RadialTestFunction
        for meth in ("value", "dvalue", "d2value"):
            self._patch_method(rtf, meth, self._profile(
                getattr(rtf, meth), f"geometry.RadialTestFunction.{meth}"))

    def _patch_method(self, cls, attr, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()
        self._sizes.clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, jobs_s: float, overhead: float, prec_leaks: int) -> dict:
    """Per-layer metrics (name -> (value, unit)) from one traced phase."""
    c = rec.counters
    calls, incl, self_time = rec.totals()
    layer_self = Counter()
    for key, s in self_time.items():
        layer_self[key.split(".", 1)[0]] += s
    name, _, dur = rec.arrays()
    ids = {n: i for i, n in enumerate(rec.names)}
    # disconjugacy checks that took the mpmath path, and scalar evaluations
    # made inside a positivity scan
    in_check = rec.ancestor_in({"pairs.disconjugacy"})
    mp_checks = np.unique(in_check[(name == ids.get("expr.eval_mp", -1)) & (in_check >= 0)])
    mp_s = float(dur[mp_checks].sum())
    in_scan = rec.ancestor_in({"pairs.scan_positivity"})
    scan_scalar = int(np.count_nonzero((name == ids.get("expr.eval_scalar", -1)) & (in_scan >= 0)))
    evals = calls["expr.eval_vec"] + calls["expr.eval_scalar"] + calls["expr.eval_mp"]
    m = {
        "expr.eval_vec.calls": (calls["expr.eval_vec"], "count"),
        "expr.eval_vec.s": (incl["expr.eval_vec"], "s"),
        "expr.eval_vec.points": (c["expr.eval_vec.points"], "count"),
        "expr.eval_vec.ns_per_node_point": (
            1e9 * _ratio(incl["expr.eval_vec"], c["expr.eval_vec.node_points"]), "ns"),
        "expr.eval_scalar.calls": (calls["expr.eval_scalar"], "count"),
        "expr.eval_scalar.s": (incl["expr.eval_scalar"], "s"),
        "expr.eval_scalar.us_per_node": (
            1e6 * _ratio(incl["expr.eval_scalar"], c["expr.eval_scalar.nodes"]), "us"),
        "expr.eval_mp.calls": (calls["expr.eval_mp"], "count"),
        "expr.eval_mp.s": (incl["expr.eval_mp"], "s"),
        "expr.nodes_per_eval": (_ratio(c["expr.nodes"], evals), "count"),
        "expr.diff.calls": (calls["expr.diff"], "count"),
        "expr.diff.s": (incl["expr.diff"], "s"),
        "pairs.scan_positivity.calls": (calls["pairs.scan_positivity"], "count"),
        "pairs.scan_positivity.s": (incl["pairs.scan_positivity"], "s"),
        "pairs.scan_positivity.points_per_s": (
            _ratio(c["pairs.scan_positivity.points"], incl["pairs.scan_positivity"]), "1/s"),
        "pairs.scan.scalar_evals": (scan_scalar, "count"),
        "pairs.relative_report.calls": (calls["pairs.relative_report"], "count"),
        "pairs.relative_report.s": (incl["pairs.relative_report"], "s"),
        "pairs.disconjugacy.calls": (calls["pairs.disconjugacy"], "count"),
        "pairs.disconjugacy.s": (incl["pairs.disconjugacy"], "s"),
        "pairs.disconjugacy.steps": (c["pairs.disconjugacy.steps"], "count"),
        "pairs.disconjugacy.s_per_step": (
            _ratio(incl["pairs.disconjugacy"], c["pairs.disconjugacy.steps"]), "s"),
        "pairs.disconjugacy.mp_share": (
            _ratio(mp_s, incl["pairs.disconjugacy"]), "ratio"),
        "pairs.disconjugacy.share": (_ratio(incl["pairs.disconjugacy"], jobs_s), "ratio"),
        "pairs.construct.s": (rec.group_inclusive(GROUPS["pairs.construct"]), "s"),
        "catalog.build.calls": (
            calls["catalog.build_entry"] + calls["catalog.chain_from_potential"], "count"),
        "catalog.build.s": (rec.group_inclusive(GROUPS["catalog.build"]), "s"),
        "verify.integrate.calls": (calls["verify.integrate"], "count"),
        "verify.integrate.s": (incl["verify.integrate"], "s"),
        "verify.integrate.self_s": (self_time["verify.integrate"], "s"),
        "verify.integrate.share": (_ratio(incl["verify.integrate"], jobs_s), "ratio"),
        "verify.panels": (c["verify.panels"], "count"),
        "verify.panels_per_integral": (_ratio(c["verify.panels"], calls["verify.integrate"]),
                                       "count"),
        "verify.panels_per_s": (_ratio(c["verify.panels"], incl["verify.integrate"]), "1/s"),
        "verify.density.points": (c["verify.density.points"], "count"),
        "verify.nonconvergence": (c["verify.nonconvergence"], "count"),
        "geometry.profile.calls": (sum(calls[n] for n in GROUPS["geometry.profile"]), "count"),
        "geometry.profile.points": (c["geometry.profile.points"], "count"),
        "geometry.profile.s": (rec.group_inclusive(GROUPS["geometry.profile"]), "s"),
        "geometry.volume_weight.s": (incl["geometry.volume_weight"], "s"),
        "sharpness.quotient.calls": (calls["sharpness.quotient"], "count"),
        "sharpness.quotient.s": (incl["sharpness.quotient"], "s"),
        "sharpness.attempts": (c["sharpness.attempts"], "count"),
        "sharpness.useful_ratio": (
            _ratio(c["sharpness.finite_quotients"], c["sharpness.attempts"]), "ratio"),
        "sharpness.gap_ratio": (
            math.exp(c["sharpness.log_gap"] / c["sharpness.gap_jobs"])
            if c["sharpness.gap_jobs"] else 0.0, "ratio"),
        "cli.main.s": (incl["cli.main"], "s"),
        "cli.format_report.s": (incl["cli.format_report"], "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m["trace.jobs_s"] = (jobs_s, "s")
    m["trace.spans"] = (rec.span_count(), "count")
    m["trace.overhead"] = (overhead, "ratio")
    m["harness.mp_prec_leaks"] = (prec_leaks, "count")
    return m
