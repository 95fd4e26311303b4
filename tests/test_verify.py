"""Quadrature and end-to-end verification runs."""

import dataclasses
import json
import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from rellich import catalog as cat
from rellich import pairs as pr
from rellich import sharpness as sh
from rellich import verify as vf
from rellich.cli import main
from rellich.expr import Const, DomainError, parse
from rellich.geometry import Profiles, SpaceForm, Splines, make_bump, sphere_area
from rellich.verify import (BatchSpec, ChainMismatchError, InequalityCase,
                            NonconvergenceError, Quadratures, generate_batch,
                            integrate, shape_sides, side, verify_case)


def _bump_mass_closed_form(a: float, b: float, n: int) -> float:
    """Exact integral of u^2 t^(n-1) omega dt for a quintic-smoothstep
    bump: the transitions are polynomials, integrated symbolically."""
    w = (b - a) / 3.0
    smooth = Polynomial([0.0, 0.0, 0.0, 10.0, -15.0, 6.0])
    s2 = smooth * smooth
    plateau = Polynomial([0.0, 1.0]) ** n
    mid = (plateau(b - w) - plateau(a + w)) / n
    rise = (s2 * Polynomial([a, w]) ** (n - 1) * w).integ()(1.0)
    fall = (s2 * Polynomial([b, -w]) ** (n - 1) * w).integ()(1.0)
    return sphere_area(n) * (mid + rise + fall)


def _integral(sf, density, a, b, knots=(), **kwargs):
    """The integral over (a, b), its bands starting at knots: a one-row
    integrate batch."""
    return integrate(sf, density, [a, *knots, b], [len(knots) + 1], **kwargs)[0]


def _batch(rows):
    """integrate's edges and bands of rows (a, b) or (a, knots, b)."""
    rows = [(r[0], *(r[1] if len(r) == 3 else ()), r[-1]) for r in rows]
    return [x for r in rows for x in r], [len(r) - 1 for r in rows]


class TestIntegrate:
    def test_bump_mass_against_polynomial_oracle(self):
        sf = SpaceForm(5, 0.0, 100.0)
        u = make_bump(0.5, 1.0, sf)
        got = _integral(sf, lambda t: u.value(t) ** 2, 0.5, 1.0, tol=1e-12)
        want = _bump_mass_closed_form(0.5, 1.0, 5)
        assert got.value == pytest.approx(want, rel=1e-10)
        assert abs(got.value - want) <= max(1e-12, 10 * got.error_estimate)

    def test_ball_volume(self):
        sf = SpaceForm(3, 0.0, 2.0)
        got = _integral(sf, lambda t: np.ones_like(t), 0.0, 1.0)
        assert got.value == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)

    def test_singular_weight_two_tolerances_agree(self):
        sf = SpaceForm(5, 1.0)
        f = lambda t: 1.0 / np.sinh(t) ** 2  # integrand ~ t^2 near 0
        a = _integral(sf, f, 0.0, 1.0, tol=1e-8)
        b = _integral(sf, f, 0.0, 1.0, tol=1e-12)
        assert abs(a.value - b.value) / abs(b.value) <= 1e-8
        assert math.isfinite(a.value)

    def test_against_scipy_reference(self):
        from scipy.integrate import quad

        sf = SpaceForm(4, 0.5, 50.0)
        u = make_bump(1.0, 6.0, sf)

        def density(t):
            return u.value(t) ** 2 / t ** 2

        got = _integral(sf, density, 1.0, 6.0, tol=1e-11)
        from rellich.geometry import volume_weight

        want, err = quad(lambda t: float(density(t) * volume_weight(sf, t)),
                         1.0, 6.0, epsabs=1e-13, epsrel=1e-12, limit=200)
        assert got.value == pytest.approx(want, rel=1e-9)

    def test_wide_range_log_substitution(self):
        # t^-1 over five decades: exactly omega * ln(b/a) for n = 1 weight...
        # use n = 2, density t^-2: integral = 2 pi ln(b/a)
        sf = SpaceForm(2, 0.0)
        got = _integral(sf, lambda t: 1.0 / t ** 2, 1e-4, 10.0, tol=1e-12)
        want = 2.0 * math.pi * math.log(10.0 / 1e-4)
        assert got.value == pytest.approx(want, rel=1e-10)

    def test_error_estimate_shrinks_with_tolerance(self):
        sf = SpaceForm(5, 0.0)
        f = lambda t: np.exp(-t) / t ** 2
        loose = _integral(sf, f, 0.01, 5.0, tol=1e-4)
        tight = _integral(sf, f, 0.01, 5.0, tol=1e-12)
        assert tight.error_estimate <= loose.error_estimate
        assert tight.subintervals >= loose.subintervals

    def test_range_validation(self):
        sf = SpaceForm(3, 0.0, 1.0)
        with pytest.raises(ValueError):
            _integral(sf, lambda t: t, 0.5, 2.0)
        with pytest.raises(ValueError):
            _integral(sf, lambda t: t, -0.5, 0.7)

    def test_knots_must_be_ordered_inside_the_range(self):
        sf = SpaceForm(3, 0.0, 5.0)
        f = lambda t: np.exp(-t)
        with pytest.raises(ValueError, match=r"row 0: \[0.1, 1.0\] with knots \[2.0\]"):
            _integral(sf, f, 0.1, 1.0, knots=[2.0])
        with pytest.raises(ValueError, match=r"row 0: \[0.1, 1.0\] with knots \[0.6, 0.4\]"):
            _integral(sf, f, 0.1, 1.0, knots=[0.6, 0.4])
        with pytest.raises(ValueError, match=r"row 1: \[0.1, 1.0\] with knots \[0.05\]"):
            integrate(sf, f, *_batch([(0.1, [0.5], 1.0), (0.1, [0.05], 1.0), (0.1, [0.5], 1.0)]))
        # a row outside [0, R] is named, with its knots, after rows that are not
        with pytest.raises(ValueError, match=r"row 2: \[0.5, 6.0\] with knots \[1.0, 2.0\]"):
            integrate(sf, f, *_batch([(0.1, 1.0), (0.0, [], 5.0), (0.5, [1.0, 2.0], 6.0),
                                     (-0.1, 1.0)]))
        # knots at the ends and repeated knots are bands of zero width
        plain = _integral(sf, f, 0.1, 1.0, knots=[0.5])
        edged = _integral(sf, f, 0.1, 1.0, knots=[0.1, 0.5, 0.5, 1.0])
        assert edged.value == pytest.approx(plain.value, rel=1e-14)

    def test_nonconvergence_raises(self, monkeypatch):
        from rellich.verify import NonconvergenceError

        sf = SpaceForm(3, 0.0, 2.0)
        wiggly = lambda t: np.sin(5e4 / t)
        monkeypatch.setattr(vf, "_MAX_PANELS", 8)
        with pytest.raises(NonconvergenceError):
            _integral(sf, wiggly, 0.1, 1.0, tol=1e-12)


def _peak(t):
    """Sharp at t = 1.5: supports across it refine, the others do not."""
    return 1.0 / ((t - 1.5) ** 2 + 1e-4)


class TestLockstep:
    """A batched integrate call runs its integrals in lockstep and gives each
    the result it gets alone, bit for bit."""

    sf = SpaceForm(5, 0.0, 100.0)
    # log-substituted (b/a > 32) and capped at _MAX_PANELS, first-pass
    # linear, linear from a = 0, refining linear, log-substituted, linear
    supports = [(0.01, 5.0), (1.0, 1.2), (0.0, 1.46), (1.4, 1.6), (0.3, 12.0),
                (2.0, 2.5)]

    def test_lockstep_equals_solo(self, monkeypatch):
        uncapped = _integral(self.sf, _peak, 0.01, 5.0, tol=1e-8)
        monkeypatch.setattr(vf, "_MAX_PANELS", 25)
        edges, bands = _batch(self.supports)
        batch = integrate(self.sf, _peak, edges, bands, tol=1e-8)
        solo = [_integral(self.sf, _peak, a, b, tol=1e-8) for a, b in self.supports]
        assert isinstance(batch, Quadratures)
        assert list(batch) == solo
        assert batch.subintervals == sum(q.subintervals for q in solo)
        # the capped integral would refine further, the short ones converge
        # on the first pass while the others refine
        assert solo[0].subintervals == 25
        assert uncapped.subintervals > 25
        assert solo[1].subintervals == solo[5].subintervals == 8
        assert min(solo[2].subintervals, solo[3].subintervals) > 9

    def test_large_mixed_batch_equals_solo(self, monkeypatch):
        """A 41-integral batch, log-substituted and linear, across the peak
        and away from it, some capped at _MAX_PANELS, some converging on the
        first pass, many of one panel count but of different values."""
        supports = ([(0.01, 5.0), (0.3, 12.0)]
                    + [(0.02 + 0.002 * j, 2.0 + 0.3 * j) for j in range(8)]
                    + [(3.0 + 0.1 * j, 99.0 - j) for j in range(4)]
                    + [(1.0 + 0.02 * j, 2.0 + 0.03 * j) for j in range(10)]
                    + [(2.0 + 0.2 * j, 2.5 + 0.2 * j) for j in range(10)]
                    + [(0.0, 1.0 + 0.1 * j) for j in range(5)] + [(0.0, 1.46), (1.4, 1.6)])
        monkeypatch.setattr(vf, "_MAX_PANELS", 25)
        solo = [_integral(self.sf, _peak, a, b, tol=1e-8) for a, b in supports]
        edges, bands = _batch(supports)
        assert list(integrate(self.sf, _peak, edges, bands, tol=1e-8)) == solo
        monkeypatch.setattr(vf, "_MAX_NODES", 15 * 4)
        assert list(integrate(self.sf, _peak, edges, bands, tol=1e-8)) == solo
        panels = [q.subintervals for q in solo]
        assert panels[0] == 25 and max(panels) > 25           # capped
        assert panels[10] == 16 and panels.count(8) >= 10     # first pass, log and linear
        first_pass = [q.value for q, n in zip(solo, panels) if n == 8]
        assert len(set(first_pass)) == len(first_pass)

    def test_ragged_knots_equal_solo(self):
        """Knot rows of different lengths (none, repeated, at an end) run as
        one flat panel table, each integral as it runs alone."""
        rows = [(0.01, [0.1, 1.5, 3.0], 5.0), (1.0, [], 1.2), (0.3, [1.5], 12.0),
                (1.4, [1.4, 1.45, 1.5, 1.5, 1.58], 1.6), (0.0, [0.2, 0.4], 1.46)]
        solo = [_integral(self.sf, _peak, a, b, tol=1e-8, knots=k) for a, k, b in rows]
        batch = integrate(self.sf, _peak, *_batch(rows), tol=1e-8)
        assert list(batch) == solo
        assert batch.subintervals == sum(q.subintervals for q in solo)
        assert len({q.subintervals for q in solo}) > 1
        rows[3] = (1.4, [1.45, 1.5, 1.42], 1.6)
        with pytest.raises(ValueError,
                           match=r"row 3: \[1.4, 1.6\] with knots \[1.45, 1.5, 1.42\]"):
            integrate(self.sf, _peak, *_batch(rows))

    def test_only_pending_panels_are_evaluated(self, monkeypatch):
        """Each row of t holds the 15 nodes of one panel of an unfinished
        integral, so the batch evaluates as many nodes as the solo runs, and
        as many times as the solo run with the most passes."""
        shapes, selected = [], []

        def density(t):
            shapes.append(t.shape)
            return _peak(t)

        monkeypatch.setattr(vf, "_MAX_PANELS", 25)
        edges, bands = _batch(self.supports)
        integrate(self.sf, density, edges, bands, tol=1e-8, select=selected.append)
        batch, shapes[:] = list(shapes), []
        passes = []
        for a, b in self.supports:
            _integral(self.sf, density, a, b, tol=1e-8)
            passes.append(len(shapes) - sum(passes))
        assert all(shape[1] == 15 for shape in batch + shapes)
        assert sum(n for n, _ in batch) == sum(n for n, _ in shapes)
        assert len(batch) == max(passes)
        assert [len(rows) for rows in selected] == [n for n, _ in batch]
        assert all((np.diff(rows) >= 0).all() for rows in selected)
        # integral 1 converges on the first pass and is not evaluated again
        assert 1 in selected[0] and all(1 not in rows for rows in selected[1:])

    def test_deep_pass_is_split_under_the_node_cap(self, monkeypatch):
        monkeypatch.setattr(vf, "_MAX_PANELS", 25)
        edges, bands = _batch(self.supports)
        sizes = []

        def density(t):
            sizes.append(t.size)
            return _peak(t)

        whole = integrate(self.sf, density, edges, bands, tol=1e-8)
        passes, sizes[:] = len(sizes), []
        monkeypatch.setattr(vf, "_MAX_NODES", 15 * 4)     # four panels a call
        assert integrate(self.sf, density, edges, bands, tol=1e-8) == whole
        assert max(sizes) == 15 * 4 and len(sizes) > passes

    def test_integrals_after_a_failure_stop(self):
        calls = []

        def density(t):
            calls.append(t.shape)
            return np.where(t > 3.0, np.inf, _peak(t))

        with pytest.raises(NonconvergenceError, match="non-finite"):
            integrate(self.sf, density, *_batch([(3.5, 4.0), (0.01, 5.0)]), tol=1e-8)
        assert len(calls) == 1

    def test_empty_batch(self):
        assert integrate(self.sf, _peak, [], []) == ()
        assert side(self.sf, Const(1.0), Splines([]), "usq") == ()

    @pytest.mark.parametrize("density,failing", [
        (lambda t: np.where(t < 1.0, np.sin(5e4 / t), 1.0), (0.1, 1.0)),
        (lambda t: np.where(t > 3.0, np.inf, 1.0), (3.5, 4.0)),
    ])
    def test_failure_is_the_solo_failure(self, monkeypatch, density, failing):
        monkeypatch.setattr(vf, "_MAX_PANELS", 8)
        supports = [(1.0, 1.2), failing, (2.0, 2.5)]
        with pytest.raises(NonconvergenceError) as solo:
            _integral(self.sf, density, *failing, tol=1e-12)
        edges, bands = _batch(supports)
        with pytest.raises(NonconvergenceError) as batch:
            integrate(self.sf, density, edges, bands, tol=1e-12)
        assert str(batch.value) == str(solo.value)

    def test_domain_error_on_pass_one_beats_an_earlier_nonconvergence(self, monkeypatch):
        # sin(5e4/t) does not converge below t = 1, and (0.1, 1.0) starts at
        # the 8-panel cap, so it fails its convergence check on pass 1; w is
        # out of domain on (2.2, 2.3), which the density call of pass 1
        # already hits for (2.0, 2.5), before any convergence check
        w = parse("sqrt((t-2.25)^2-0.0025)")

        def density(t):
            return np.where(t < 1.0, np.sin(5e4 / t), 1.0) * w.evaluate({"t": t})

        def failure(supports):
            edges, bands = _batch(supports)
            with pytest.raises((NonconvergenceError, DomainError)) as exc:
                integrate(self.sf, density, edges, bands, tol=1e-12)
            return exc.value

        monkeypatch.setattr(vf, "_MAX_PANELS", 8)
        assert isinstance(failure([(0.1, 1.0)]), NonconvergenceError)
        out_of_domain = failure([(2.0, 2.5)])
        assert isinstance(out_of_domain, DomainError)
        batch = failure([(1.0, 1.2), (0.1, 1.0), (2.0, 2.5)])
        assert type(batch) is DomainError and str(batch) == str(out_of_domain)

    def test_non_finite_chunk_stops_the_pass(self, monkeypatch):
        # four panels a call and four initial panels per integral: the
        # second call of pass 1 holds exactly the panels of (3.5, 4.0)
        calls = []

        def density(t):
            calls.append(t.shape)
            return np.where(t > 3.0, np.inf, 1.0)

        monkeypatch.setattr(vf, "_MAX_NODES", 15 * 4)
        with pytest.raises(NonconvergenceError, match="non-finite"):
            integrate(self.sf, density, *_batch([(1.0, 1.2), (3.5, 4.0), (2.0, 2.5)]), tol=1e-8,
                      panels=8)
        assert calls == [(4, 15), (4, 15)]


class TestGroupSums:
    """The per-integral sums of the flat panel table are each the sum of the
    integral's own panels alone, bit for bit."""

    @staticmethod
    def _check(x, counts):
        bounds = np.concatenate(([0], np.cumsum(counts)))
        alone = [[row[s:e].sum() for s, e in zip(bounds[:-1], bounds[1:])] for row in x]
        assert vf._group_sums(x, counts).tobytes() == np.array(alone).tobytes()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ragged_runs(self, seed):
        rng = np.random.default_rng(seed)
        # ragged lengths from 1 to 4096, some repeated, so buckets hold
        # several runs
        counts = np.concatenate([rng.integers(1, 4097, 24), [1, 1, 2, 4096, 4096],
                                 rng.integers(1, 200, 6).repeat(3)])
        rng.shuffle(counts)
        size = int(counts.sum())
        x = 10.0 ** rng.uniform(-20, 5, (3, size)) * rng.choice([-1.0, 1.0], (3, size))
        self._check(x, counts)
        # a gathered table is not C-contiguous, and its row sums along a
        # reshaped or fancy-indexed view would not be pairwise
        gathered = x[:, rng.permutation(size)]
        assert not gathered.flags.c_contiguous
        self._check(gathered, counts)

    def test_runs_of_one_length(self):
        rng = np.random.default_rng(4)
        for length, runs in ((1, 5), (37, 1), (300, 7), (4096, 3)):
            x = 10.0 ** rng.uniform(-20, 5, (3, length * runs))
            self._check(x, np.full(runs, length))
            self._check(x[:, rng.permutation(length * runs)], np.full(runs, length))


def _splines(supports, cells=(13, 23, 43, 83)):
    """Spline rows of the given cell counts on the given supports, with
    smooth coefficients of both signs."""
    return [(lo, hi, np.cos(np.linspace(0.0, 4.0, m - 3)) + 0.3)
            for (lo, hi), m in zip(supports, cells)]


class _Scaled(Profiles):
    """A batch of bumps whose jets are scaled by s."""

    def __init__(self, us, s):
        super().__init__(us)
        self._s = s

    def jet(self, t):
        return tuple(self._s * d for d in super().jet(t))


def _side(sf, weight, u, form, tol=vf.DEFAULT_QUAD_TOL):
    """side of the one bump u, as a batch of one."""
    return side(sf, weight, Profiles([u]), form, tol=tol)[0]


class TestSides:
    def setup_method(self):
        self.sf = SpaceForm(5, 0.0)
        self.entry = cat.classical_euclidean(5)
        self.dual = self.entry.specs["dual"]
        self.u = make_bump(0.5, 1.0, self.sf)

    def test_zero_function(self):
        z = _Scaled([self.u], 0.0)
        assert side(self.sf, Const(1.0), z, "delta")[0].value == 0.0
        assert side(self.sf, Const(1.0), z, "usq")[0].value == 0.0

    def test_quadratic_scaling(self):
        base = _side(self.sf, Const(1.0), self.u, "delta")
        (scaled,) = side(self.sf, Const(1.0), _Scaled([self.u], 2.0), "delta")
        assert scaled.value == pytest.approx(4.0 * base.value, rel=1e-12)

    def test_stability_under_refinement(self):
        a = _side(self.sf, Const(1.0), self.u, "delta", tol=1e-8)
        b = _side(self.sf, Const(1.0), self.u, "delta", tol=1e-12)
        assert a.value == pytest.approx(b.value, rel=1e-8)
        assert a.value > 0

    def test_grad_equals_gradrad_for_radial(self):
        wp = parse("1/t^2")
        a = _side(self.sf, wp, self.u, "gradrad")
        b = _side(self.sf, wp, self.u, "grad")
        assert b.value == pytest.approx(a.value, rel=1e-12)

    def test_grad_exceeds_gradrad_for_modes(self):
        u1 = make_bump(0.5, 1.0, self.sf, l=1)
        wp = parse("1/t^2")
        a = _side(self.sf, wp, u1, "gradrad")
        b = _side(self.sf, wp, u1, "grad")
        assert b.value > a.value > 0

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            _side(self.sf, Const(1.0), self.u, "curl")

    @pytest.mark.parametrize("form,l", [("delta", 0), ("delta", 1), ("gradrad", 0),
                                        ("grad", 1), ("usq", 0)])
    def test_one_jet_per_density_evaluation(self, monkeypatch, form, l):
        jets, densities = [], []
        jet, integrate = Profiles.jet, vf.integrate

        def counted_jet(u, t):
            jets.append(np.size(t))
            return jet(u, t)

        def counted_integrate(sf, density, *args):
            def counted(t):
                densities.append(np.size(t))
                return density(t)
            return integrate(sf, counted, *args)

        monkeypatch.setattr(Profiles, "jet", counted_jet)
        monkeypatch.setattr(vf, "integrate", counted_integrate)
        u = make_bump(0.5, 1.0, self.sf, l=l)
        assert _side(self.sf, parse("1/t^2"), u, form).value > 0
        assert densities and jets == densities

    @pytest.mark.parametrize("form", ["delta", "gradrad", "grad", "usq"])
    def test_batch_side_equals_solo_sides(self, form):
        w = parse("1/t^2")
        for sf in (SpaceForm(7, 0.0), SpaceForm(5, 1.0), SpaceForm(7, 0.5, 40.0)):
            us = generate_batch(sf, BatchSpec(count=9, seed=15, modes=(0, 1, 2)))
            assert list(side(sf, w, Profiles(us), form)) == [_side(sf, w, u, form) for u in us]

    @pytest.mark.parametrize("form", ["delta", "gradrad", "grad", "usq"])
    def test_spline_batch_side_equals_solo_sides(self, form):
        # splines of 13, 23, 43 and 83 cells, log-substituted and linear
        w = parse("1/t^2")
        for sf in (SpaceForm(7, 0.0), SpaceForm(5, 1.0), SpaceForm(7, 0.5, 40.0)):
            us = _splines([(0.01, 5.0), (0.5, 3.0), (1e-3, 20.0), (2.0, 9.0)])
            batch = side(sf, w, Splines(us), form)
            assert isinstance(batch, Quadratures)
            assert list(batch) == [side(sf, w, Splines([u]), form)[0] for u in us]

    def test_one_integrate_call_per_sides_on_a_batch(self, monkeypatch):
        """Both sides of a 50-test batch run in one integrate call, which
        makes as many passes as the slowest of its integrals makes alone, and
        one jet call per density call."""
        sf = SpaceForm(7, 0.0)
        sides = shape_sides("delta-vs-grad", cat.classical_euclidean(7).specs["dual"], sf)
        us = generate_batch(sf, BatchSpec(count=50, seed=3, modes=(0, 1, 2)))
        calls, jets = _counted(monkeypatch)
        for u in us:
            for weight, form, bindings in sides.entries:
                side(sf, weight, Profiles([u]), form, bindings)
        solo = max(passes for passes, _ in calls)
        calls.clear()
        jets.clear()
        sides.integrals(sf, Profiles(us))
        assert [passes for passes, _ in calls] == [solo]
        assert solo <= 61
        assert len(jets) == calls[0][1]
        assert all(shape[1] == 15 for shape in jets)


def _counted(monkeypatch):
    """A list that gets one [passes, density calls] entry per integrate call
    made while monkeypatch holds, and a list of the shapes of t of the jet
    calls on bumps."""
    calls, jets = [], []
    integrate, kronrod, jet = vf.integrate, vf._kronrod, Profiles.jet

    def counted_integrate(sf, density, *args):
        calls.append([0, 0])

        def counted(t):
            calls[-1][1] += 1
            return density(t)
        return integrate(sf, counted, *args)

    def counted_kronrod(*args):
        calls[-1][0] += 1
        return kronrod(*args)

    def counted_jet(u, t):
        jets.append(np.shape(t))
        return jet(u, t)

    monkeypatch.setattr(vf, "integrate", counted_integrate)
    monkeypatch.setattr(vf, "_kronrod", counted_kronrod)
    monkeypatch.setattr(Profiles, "jet", counted_jet)
    return calls, jets


class TestJointSides:
    """Every side of a case runs as integrals of one integrate call, each
    bit-identical to its side run alone."""

    @pytest.mark.parametrize("entry_id,n,kappa", [("classical-rellich", 6, 0.0),
                                                  ("hyp-final", 5, 1.0)])
    def test_chain_run_equals_each_side_alone(self, monkeypatch, entry_id, n, kappa):
        entry, sf = cat.build_entry(entry_id, n=n, kappa=kappa), SpaceForm(n, kappa)
        batch = BatchSpec(modes=(0, 1, 2))
        runs, integrate = [], vf.integrate

        def recorded(*args):
            runs.append(integrate(*args))
            return runs[-1]

        monkeypatch.setattr(vf, "integrate", recorded)
        rep = verify_case(InequalityCase("chain", sf, batch, entry.chain))
        monkeypatch.undo()
        assert len(runs) == 1 and rep.verdict == "pass"
        chain, profiles = entry.chain, Profiles(generate_batch(sf, batch))
        sides = [shape_sides("delta-vs-gradrad", chain.dual, sf)] + [
            shape_sides("gradrad-vs-usq", link.spec, sf) for link in chain.links]
        alone = [side(sf, weight, profiles, form, bindings)
                 for s in sides for weight, form, bindings in s.entries]
        assert len(alone) == 2 + 2 * len(chain.links)
        assert list(runs[0]) == [q for quads in alone for q in quads]
        assert [t.lhs for t in rep.tests[::len(chain.links) + 2]] == [q.value for q in alone[0]]

    def test_spline_and_empty_batches(self, monkeypatch):
        sf, w = SpaceForm(7, 0.5, 40.0), parse("1/t^2")
        entries = [(w, "delta", {}), (Const(2.0), "grad", {}), (w, "usq", {})]
        us = Splines(_splines([(0.01, 5.0), (0.5, 3.0), (1e-3, 20.0), (2.0, 9.0)]))
        calls, _ = _counted(monkeypatch)
        joint = vf.integrate_sides(sf, entries, us)
        assert len(calls) == 1
        assert joint == [side(sf, weight, us, form, b) for weight, form, b in entries]
        assert all(isinstance(q, Quadratures) and len(q) == 4 for q in joint)
        calls.clear()
        assert vf.integrate_sides(sf, entries, Splines([])) == [(), (), ()]
        rep = verify_case(InequalityCase("chain", SpaceForm(6, 0.0), BatchSpec(count=0),
                                         cat.classical_euclidean(6).chain))
        assert rep.tests == () and len(calls) == 2


class TestFailureOrder:
    """Of the sides of one run, the one that fails on the earliest pass is
    named, whatever their order."""

    sf = SpaceForm(5, 0.0, 100.0)
    u = Profiles([make_bump(1.0, 1.2, sf), make_bump(1.3, 2.0, sf), make_bump(2.0, 2.6, sf)])

    def setup_method(self):
        self.fine = (parse("1/((t-1.5)^2+1e-2)"), "delta", {})
        self.late = (parse("1/((t-1.5)^2+1e-6)"), "usq", {})      # fails on pass 10
        self.early = (parse("1/((t-2.3)^2+1e-5)"), "usq", {})     # fails on pass 7

    def _failure(self, monkeypatch, entries):
        """The message and passes of the failing run of entries."""
        passes, kronrod = [], vf._kronrod

        def counted(*args):
            passes.append(0)
            return kronrod(*args)

        monkeypatch.setattr(vf, "_kronrod", counted)
        with pytest.raises(NonconvergenceError) as exc:
            vf.integrate_sides(self.sf, entries, self.u, tol=1e-12)
        monkeypatch.setattr(vf, "_kronrod", kronrod)
        return str(exc.value), len(passes)

    def test_one_failing_side_names_its_own_failure(self, monkeypatch):
        monkeypatch.setattr(vf, "_MAX_PANELS", 20)
        assert vf.integrate_sides(self.sf, [self.fine], self.u, tol=1e-12)
        alone = self._failure(monkeypatch, [self.late])
        assert self._failure(monkeypatch, [self.fine, self.late]) == alone
        assert self._failure(monkeypatch, [self.late, self.fine]) == alone

    def test_the_earlier_pass_is_named(self, monkeypatch):
        monkeypatch.setattr(vf, "_MAX_PANELS", 20)
        late, early = (self._failure(monkeypatch, [e]) for e in (self.late, self.early))
        assert late[1] > early[1] and late[0] != early[0]
        assert self._failure(monkeypatch, [self.late, self.early]) == early
        assert self._failure(monkeypatch, [self.early, self.late, self.fine]) == early


class TestBatch:
    def test_deterministic(self):
        sf = SpaceForm(5, 0.0)
        a = generate_batch(sf, BatchSpec(count=10, seed=42))
        b = generate_batch(sf, BatchSpec(count=10, seed=42))
        assert a == b
        c = generate_batch(sf, BatchSpec(count=10, seed=43))
        assert [u.support_lo for u in a] != [u.support_lo for u in c]

    def test_bounds_and_ordering(self):
        sf = SpaceForm(5, 1.0)
        lo, hi = vf.batch_domain(sf)
        for u in generate_batch(sf, BatchSpec(count=40, seed=7)):
            assert lo <= u.support_lo < u.support_hi <= hi
            assert u.support_hi >= 1.1 * u.support_lo

    def test_modes_cycle(self):
        sf = SpaceForm(5, 0.0)
        batch = generate_batch(sf, BatchSpec(count=6, seed=1, modes=(0, 1, 2)))
        assert [u.l for u in batch] == [0, 1, 2, 0, 1, 2]

    def test_hyperbolic_domain_capped(self):
        lo, hi = vf.batch_domain(SpaceForm(5, 1.0))
        assert hi <= 0.98 * 150.0 + 1e-9  # 600/((n-1) kappa)


class TestVerifyCase:
    def test_classical_passes(self):
        e = cat.classical_euclidean(5)
        case = InequalityCase(shape="delta-vs-gradrad", sf=SpaceForm(5, 0.0),
                              batch=BatchSpec(count=12, seed=42),
                              pair=e.specs["dual"])
        rep = verify_case(case)
        assert rep.verdict == "pass"
        assert all(t.margin >= -t.budget for t in rep.tests)
        assert {s.target for s in rep.scans} == {"v", "V", "residual", "E1"}

    def test_side_condition_failure_is_inconclusive(self):
        e = cat.classical_euclidean(7)
        case = InequalityCase(shape="delta-vs-grad", sf=SpaceForm(7, 0.0),
                              batch=BatchSpec(count=4, seed=1, modes=(0, 1)),
                              pair=e.specs["dual"])
        rep = verify_case(case)
        assert rep.verdict == "inconclusive"
        assert any(s.target == "E2" and s.verdict == "violated" for s in rep.scans)
        # margins themselves are fine; only the side condition blocks "pass"
        assert all(t.margin >= -t.budget for t in rep.tests)

    def test_hardy_primal_passes(self):
        e = cat.classical_euclidean(5)
        case = InequalityCase(shape="gradrad-vs-usq", sf=SpaceForm(5, 0.0),
                              batch=BatchSpec(count=10, seed=11),
                              pair=e.specs["hardy"])
        rep = verify_case(case)
        assert rep.verdict == "pass"

    def test_false_inequality_fails(self):
        # inflate V by 10x: the dual residual goes negative AND margins break
        from rellich.pairs import PairSpec
        from rellich.expr import Var

        t = Var()
        bad = PairSpec(kind="dual", exprs={
            "H": Const(2.5) / t, "v": Const(1.0),
            "V": Const(6.25e6) / (t * t)})
        case = InequalityCase(shape="delta-vs-gradrad", sf=SpaceForm(5, 0.0),
                              batch=BatchSpec(count=6, seed=2), pair=bad)
        rep = verify_case(case)
        assert rep.verdict == "fail"
        assert any(t.margin < -t.budget for t in rep.tests)

    def test_homogeneity_of_margins(self):
        e = cat.classical_euclidean(5)
        sf = SpaceForm(5, 0.0)
        sides = shape_sides("delta-vs-gradrad", e.specs["dual"], sf)
        u = make_bump(2.0, 7.0, sf)
        for s in (0.5, 2.0):
            (lhs1,), (rhs1,) = sides.integrals(sf, Profiles([u]))
            (lhs2,), (rhs2,) = sides.integrals(sf, _Scaled([u], s))
            assert lhs2.value - rhs2.value == pytest.approx(
                s ** 2 * (lhs1.value - rhs1.value), rel=1e-10)

    def test_monotone_refinement_keeps_verdict(self):
        e = cat.classical_euclidean(6)
        for tol in (1e-8, 5e-9, 1e-10):
            case = InequalityCase(shape="delta-vs-gradrad", sf=SpaceForm(6, 0.0),
                                  batch=BatchSpec(count=6, seed=42),
                                  pair=e.specs["dual"])
            assert verify_case(case, quad_tol=tol).verdict == "pass"

    def test_determinism(self):
        e = cat.classical_euclidean(5)
        case = InequalityCase(shape="delta-vs-gradrad", sf=SpaceForm(5, 0.0),
                              batch=BatchSpec(count=8, seed=42),
                              pair=e.specs["dual"])
        assert verify_case(case) == verify_case(case)

    def test_empty_batch(self):
        e = cat.classical_euclidean(5)
        case = InequalityCase(shape="delta-vs-gradrad", sf=SpaceForm(5, 0.0),
                              batch=BatchSpec(count=0, seed=42),
                              pair=e.specs["dual"])
        rep = verify_case(case)
        assert rep.tests == ()
        assert rep.verdict == "pass"  # scans alone gate

    def test_case_coherence(self):
        e = cat.classical_euclidean(5)
        with pytest.raises(ValueError):
            InequalityCase(shape="delta-vs-gradrad", sf=SpaceForm(5, 0.0))
        with pytest.raises(ValueError):
            InequalityCase(shape="gradrad-vs-usq", sf=SpaceForm(5, 0.0),
                           pair=e.specs["dual"])
        with pytest.raises(ValueError):
            InequalityCase(shape="delta-vs-gradrad", sf=SpaceForm(5, 0.0), pair=e.chain)
        with pytest.raises(ValueError, match="l >= 1"):
            InequalityCase(shape="delta-vs-grad", sf=SpaceForm(8, 0.0),
                           pair=cat.classical_euclidean(8).specs["dual"],
                           batch=BatchSpec(count=4, seed=1, modes=(0,)))


class TestVerifyChain:
    def test_classical_chain_end_to_end(self):
        e = cat.classical_euclidean(6)
        rep = verify_case(InequalityCase("chain", SpaceForm(6, 0.0), BatchSpec(count=10, seed=5),
                                         e.chain))
        assert rep.verdict == "pass"
        ends = [t for t in rep.tests if t.id.endswith(":end")]
        assert len(ends) == 10
        assert all(t.margin >= -t.budget for t in ends)
        # the end RHS really is 9 * integral u^2/t^4 dx
        sf = SpaceForm(6, 0.0)
        u = generate_batch(sf, BatchSpec(count=1, seed=5))[0]
        direct = _side(sf, parse("9/t^4"), u, "usq").value
        assert ends[0].rhs == pytest.approx(direct, rel=1e-9)

    def test_potential_chain(self):
        entry = cat.iterated_log_potential(1, 1.0)
        chain = cat.chain_from_potential(entry, 6)
        rep = verify_case(InequalityCase("chain", SpaceForm(6, 0.0, 1.0),
                                         BatchSpec(count=6, seed=7), chain))
        assert rep.verdict == "pass"
        assert any(s.target == "link-2-residual" and s.verdict == "nonnegative"
                   for s in rep.scans)

    @pytest.mark.parametrize("family", ["iterlog", "ell-family"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_link_residual_agrees_with_the_ode(self, family, k, n):
        # link-2's residual a f/t + a (n-1)(ct - 1/t)/t reads nonnegative where
        # the ODE on the same Bessel pair keeps a positive solution; with W
        # raised by half the row reads violated and the chain cannot pass
        entry = (cat.iterated_log_potential if family == "iterlog" else cat.ell_potential)(k, 1.0)
        chain = cat.chain_from_potential(entry, n)
        sf = SpaceForm(n, 0.0, 1.0)
        assert _link_2_run(chain, sf)[1].verdict == "nonnegative"
        second = pr.bessel_pairs_from_potential(entry.specs["potential"], 2.0, n)[1]
        assert pr.disconjugacy_check(second, n=n).positive_solution is True
        link = chain.links[1]
        raised = dataclasses.replace(link.spec, exprs={
            **link.spec.exprs, "W": Const(1.5) * link.spec.expr("W")})
        bad = dataclasses.replace(
            chain, links=(chain.links[0], dataclasses.replace(link, spec=raised)))
        verdict, row = _link_2_run(bad, sf, count=2)
        assert row.verdict == "violated" and verdict != "pass"

    def test_inline_link_residual_reads_the_space_form(self):
        # an inline potential chain at kappa = 1: the residual gains
        # a (n-1)(ct - 1/t)/t > 0, where the ODE read only n
        pot = cat.iterated_log_potential(1, 1.0).specs["potential"]
        entry = cat.CatalogEntry("inline", {"lambda": 2.0}, {pot.kind: pot},
                                 SpaceForm(6, 1.0, 1.0))
        chain = cat.chain_from_potential(entry, 6)
        flat, curved = (_link_2_run(chain, SpaceForm(6, kappa, 1.0))[1] for kappa in (0.0, 1.0))
        assert flat.verdict == curved.verdict == "nonnegative"
        assert curved.min > flat.min
        second = pr.bessel_pairs_from_potential(pot, 2.0, 6)[1]
        assert pr.disconjugacy_check(second, n=6).positive_solution is True

    def test_final_combined_chain(self):
        entry = cat.final_combined(5, 1.0)
        rep = verify_case(InequalityCase("chain", SpaceForm(5, 1.0), BatchSpec(count=5, seed=9),
                                         entry.chain))
        assert rep.verdict == "pass"

    def test_link_mismatch_detected(self):
        import dataclasses

        e = cat.classical_euclidean(6)
        bad_links = (dataclasses.replace(e.chain.links[0], alpha=1.5),)
        bad = dataclasses.replace(e.chain, links=bad_links)
        with pytest.raises(ChainMismatchError, match="link-1"):
            verify_case(InequalityCase("chain", SpaceForm(6, 0.0), BatchSpec(count=1, seed=1),
                                       bad))

    def test_spurious_link_among_many_is_named(self):
        import dataclasses

        e = cat.final_combined(5, 1.0)
        spurious = cat.ChainLink(alpha=1.0, spec=cat.hyperbolic_lower(5, 1.0, 1)
                                 .specs["primal"], label="link-x")
        bad = dataclasses.replace(e.chain, links=e.chain.links + (spurious,))
        with pytest.raises(ChainMismatchError, match="offending link: link-x"):
            verify_case(InequalityCase("chain", SpaceForm(5, 1.0), BatchSpec(count=1, seed=1),
                                       bad))


def _link_2_run(chain, sf, count=0):
    """The verdict and link-2-residual row of the chain on count tests."""
    rep = verify_case(InequalityCase("chain", sf, BatchSpec(count=count, seed=7), chain))
    return rep.verdict, next(s for s in rep.scans if s.target == "link-2-residual")


def _rows(tmp_path, argv: str, tol: float) -> dict:
    # the scan grid does not reach the quadrature, so a coarse one will do
    out = tmp_path / "report.json"
    main(argv.split() + ["--grid", "500", "--quad-tol", repr(tol), "-o", str(out)])
    return {t["id"]: t for t in json.loads(out.read_text())["tests"]}


class TestBudgetBoundsTheError:
    """A value at the default tolerance is within its budget of the value at
    1e-14: the budget bounds the quadrature error, also across the knots of
    a bump or a spline, where |K15 - G7| alone misjudged it."""

    @pytest.mark.parametrize("argv", [
        "chain --catalog hyp-final --n 5 --kappa 1 --tests 20",
        "verify --catalog hyp-lower-2 --n 5 --kappa 1",
        "verify --catalog classical-rellich --n 6",
        "chain --catalog classical-rellich --n 6",
    ])
    def test_report_margins(self, tmp_path, argv):
        got, ref = (_rows(tmp_path, argv, tol) for tol in (vf.DEFAULT_QUAD_TOL, 1e-14))
        over = [(k, abs(r["margin"] - ref[k]["margin"]) / r["budget"])
                for k, r in got.items() if abs(r["margin"] - ref[k]["margin"]) > r["budget"]]
        assert over == []

    def test_estimate_levels(self):
        """Both sides of the minimizer of every level of estimate --catalog
        classical-rellich --n 6 --budget 100, re-integrated."""
        sf = SpaceForm(6, 0.0)
        pair, claimed = sh.sharpness_problem(cat.classical_euclidean(6), "delta-vs-gradrad",
                                             sf)
        sides = shape_sides("delta-vs-gradrad", pair, sf, claimed=claimed)
        lo, hi = sh._interval(sf)
        over = []
        for cells in sh._levels(100):
            _, c = sh._ritz(*sh._grams(sf, sides, lo, hi, cells))
            u = Splines([(lo, hi, c.tolist())])
            for (side_got,), (side_ref,) in zip(sides.integrals(sf, u),
                                                sides.integrals(sf, u, 1e-14)):
                if abs(side_got.value - side_ref.value) > side_got.error_estimate:
                    over.append((cells, side_got, side_ref))
        assert over == []
