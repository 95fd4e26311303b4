"""Space-form quantities and test functions."""

import math

import numpy as np
import pytest

from rellich.expr import Const, fd_check, parse
from rellich.geometry import (Profiles, RadialTestFunction, SpaceForm, SplineProfile, Splines,
                              angular_eigenvalue, big_l, bspline_basis, ct, make_bump, s_kappa,
                              separated_laplacian, sphere_area, volume_weight)
from rellich.verify import side


class _Monomial:
    """Unclipped t^p profile, test-only (not compactly supported)."""

    l = 0

    def __init__(self, p):
        self.p = p

    def jet(self, t):
        p = self.p
        return t ** p, p * t ** (p - 1), p * (p - 1) * t ** (p - 2)


class TestSpaceForm:
    def test_validation(self):
        SpaceForm(2, 0.0)
        with pytest.raises(ValueError):
            SpaceForm(1, 0.0)
        for kappa in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="curvature"):
                SpaceForm(3, kappa)
        with pytest.raises(ValueError):
            SpaceForm(3, 1.0, 0.0)

    def test_immutable(self):
        sf = SpaceForm(3, 1.0)
        with pytest.raises(Exception):
            sf.n = 4


class TestCt:
    def test_flat(self):
        assert ct(SpaceForm(3, 0.0), 2.0) == 0.5

    def test_hyperbolic_value(self):
        # independent: cosh(1)/sinh(1)
        want = math.cosh(1.0) / math.sinh(1.0)
        assert ct(SpaceForm(3, 1.0), 1.0) == pytest.approx(want, rel=1e-15)
        assert ct(SpaceForm(3, 1.0), 1.0) == pytest.approx(1.3130352855, abs=1e-9)

    def test_asymptote(self):
        assert ct(SpaceForm(3, 1.0), 1e3) == pytest.approx(1.0, abs=1e-15)

    def test_always_above_kappa(self):
        sf = SpaceForm(4, 0.7)
        for t in np.geomspace(1e-3, 50.0, 50):
            # strictly above kappa until coth saturates in double precision
            if t * sf.kappa < 20:
                assert ct(sf, float(t)) > sf.kappa
            else:
                assert ct(sf, float(t)) >= sf.kappa

    def test_t_ct_above_one_when_curved(self):
        sf = SpaceForm(5, 2.0)
        ts = np.geomspace(1e-3, 100.0, 200)
        assert np.all(ts * ct(sf, ts) > 1.0)
        sf0 = SpaceForm(5, 0.0)
        assert np.allclose(ts * ct(sf0, ts), 1.0, rtol=1e-15)

    def test_derivative_identity(self):
        # d/dt ct = kappa^2 - ct^2, against the finite-difference oracle
        e = parse("ct(t)")
        rng = np.random.default_rng(11)
        for kappa in (0.0, 0.5, 1.0):
            for t in rng.uniform(0.1, 10.0, size=50):
                b = {"kappa": kappa, "t": float(t)}
                assert fd_check(e, b, h=1e-6) <= 1e-6
                sym = e.diff().evaluate(b)
                want = kappa ** 2 - ct(SpaceForm(2, kappa), float(t)) ** 2
                assert sym == pytest.approx(want, rel=1e-12)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            ct(SpaceForm(3, 0.0), 0.0)

    def test_float_t_is_the_array_path(self):
        ts = np.geomspace(1e-3, 1e3, 41)
        for sf in (SpaceForm(4, 0.0), SpaceForm(4, 0.7)):
            for f in (ct, s_kappa):
                points = np.array([f(sf, float(t)) for t in ts])
                assert points.tobytes() == np.asarray(f(sf, ts), dtype=float).tobytes()


class TestBigL:
    def test_flat(self):
        assert big_l(SpaceForm(5, 0.0), 2.0) == 2.0

    def test_n2_equals_ct(self):
        sf = SpaceForm(2, 0.8)
        for t in (0.3, 1.0, 4.0):
            assert big_l(sf, t) == ct(sf, t)

    def test_hyperbolic(self):
        assert big_l(SpaceForm(5, 1.0), 1.0) == pytest.approx(
            4.0 * math.cosh(1.0) / math.sinh(1.0), rel=1e-14)
        assert big_l(SpaceForm(5, 1.0), 1.0) == pytest.approx(5.252141142, abs=1e-8)


class TestVolumeWeight:
    def test_sphere_area_formula(self):
        # 2 pi^(n/2) / Gamma(n/2): omega_2 = 4 pi, omega_1 = 2 pi
        assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
        assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert sphere_area(4) == pytest.approx(2.0 * math.pi ** 2, rel=1e-15)

    def test_flat_values(self):
        assert volume_weight(SpaceForm(3, 0.0), 2.0) == pytest.approx(
            4.0 * math.pi * 4.0, rel=1e-14)
        assert volume_weight(SpaceForm(2, 0.0), 1.0) == pytest.approx(
            2.0 * math.pi, rel=1e-14)

    def test_hyperbolic_value(self):
        want = 4.0 * math.pi * math.sinh(1.0) ** 2
        assert volume_weight(SpaceForm(3, 1.0), 1.0) == pytest.approx(want, rel=1e-14)
        assert want == pytest.approx(17.355, abs=5e-4)

    def test_strictly_increasing(self):
        for sf in (SpaceForm(4, 0.0), SpaceForm(4, 1.3)):
            ts = np.geomspace(0.01, 20.0, 100)
            w = volume_weight(sf, ts)
            assert np.all(np.diff(w) > 0)

    def test_past_float_range_is_inf(self):
        # sinh(kappa t) overflows from kappa t ~ 710 on; a float t and an
        # array both saturate to inf rather than raise
        sf = SpaceForm(3, 1.0)
        with np.errstate(over="raise"):
            assert s_kappa(sf, 800.0) == math.inf
            assert volume_weight(sf, 800.0) == math.inf
            assert np.all(np.isinf(s_kappa(sf, np.array([800.0, 1e5]))))
        assert ct(sf, 800.0) == 1.0

    def test_flat_limit_of_curved(self):
        for t in (0.5, 1.0, 2.0):
            a = volume_weight(SpaceForm(5, 1e-4), t)
            b = volume_weight(SpaceForm(5, 0.0), t)
            assert abs(a - b) / b <= 1e-6


class TestLaplacians:
    def test_euclidean_quadratic(self):
        # Delta |x|^2 = 2n in R^n
        u = _Monomial(2)
        assert separated_laplacian(SpaceForm(3, 0.0), u, 1.0) == pytest.approx(6.0)
        assert separated_laplacian(SpaceForm(7, 0.0), u, 2.5) == pytest.approx(14.0)

    def test_plateau_is_harmonic(self):
        sf = SpaceForm(4, 0.9, 10.0)
        u = make_bump(1.0, 4.0, sf)
        for t in (2.2, 2.5, 2.8):  # middle third
            assert separated_laplacian(sf, u, t) == 0.0

    def test_hyperbolic_quadratic(self):
        got = separated_laplacian(SpaceForm(3, 1.0), _Monomial(2), 1.0)
        want = 2.0 + 2.0 * 2.0 * math.cosh(1.0) / math.sinh(1.0)
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(7.2521, abs=1e-4)

    def test_angular_eigenvalues(self):
        assert angular_eigenvalue(5, 1) == 4.0
        assert angular_eigenvalue(4, 2) == 8.0
        assert angular_eigenvalue(3, 1) == 2.0
        assert angular_eigenvalue(9, 0) == 0.0
        assert isinstance(angular_eigenvalue(5, 1), float)

    def test_separated_against_grid_laplacian(self):
        """l = 1, n = 3 Euclidean: 7-point-stencil Laplacian of
        phi(|x|) x1/|x| must match the separated formula (mu_1 = 2)."""
        sf = SpaceForm(3, 0.0)

        def phi(r):
            return r * np.exp(-(r ** 2))

        class _Phi:
            l = 1

            @staticmethod
            def jet(t):
                g = np.exp(-(t ** 2))
                return phi(t), (1.0 - 2.0 * t ** 2) * g, (4.0 * t ** 3 - 6.0 * t) * g

        def u(x, y, z):
            r = math.sqrt(x * x + y * y + z * z)
            return phi(r) * x / r

        h = 1e-2
        for point in [(0.7, 0.2, -0.4), (1.1, -0.5, 0.3), (0.4, 0.9, 0.1)]:
            x, y, z = point
            lap = (u(x + h, y, z) + u(x - h, y, z) + u(x, y + h, z) + u(x, y - h, z)
                   + u(x, y, z + h) + u(x, y, z - h) - 6.0 * u(x, y, z)) / h ** 2
            r = math.sqrt(x * x + y * y + z * z)
            want = separated_laplacian(sf, _Phi, r) * x / r
            assert lap == pytest.approx(want, abs=1e-3)


class TestBump:
    def setup_method(self):
        self.sf = SpaceForm(5, 0.0, 100.0)
        self.u = make_bump(1.0, 4.0, self.sf)

    def test_boundary_values_vanish(self):
        for t in (1.0, 4.0):
            assert self.u.value(t) == 0.0
            assert self.u.dvalue(t) == 0.0
            assert self.u.d2value(t) == 0.0

    def test_plateau_one(self):
        ts = np.linspace(2.0, 3.0, 11)
        assert np.all(self.u.value(ts) == 1.0)
        assert float(np.max(self.u.value(np.linspace(0.5, 5.0, 2001)))) == 1.0

    def test_outside_support_zero(self):
        for t in (0.5, 0.99, 4.01, 9.0):
            assert self.u.value(t) == 0.0
            assert self.u.dvalue(t) == 0.0

    def test_l2_mass_positive(self):
        ts = np.linspace(1.0, 4.0, 1000)
        assert float(np.sum(self.u.value(ts) ** 2 * ts ** 4)) > 0

    def test_c2_across_knots(self):
        # u'' jump across every transition knot <= 1e-9
        for knot in (1.0, 2.0, 3.0, 4.0):
            left = self.u.d2value(knot - 1e-12)
            right = self.u.d2value(knot + 1e-12)
            assert abs(left - right) <= 1e-9

    def test_derivatives_against_fd(self):
        ts = np.linspace(1.01, 3.99, 57)
        h = 1e-7
        fd1 = (self.u.value(ts + h) - self.u.value(ts - h)) / (2 * h)
        assert np.allclose(fd1, self.u.dvalue(ts), atol=1e-5)
        h2 = 1e-5  # second differences need a larger step against roundoff
        fd2 = (self.u.value(ts + h2) - 2 * self.u.value(ts) + self.u.value(ts - h2)) / h2 ** 2
        assert np.allclose(fd2, self.u.d2value(ts), atol=1e-5)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            make_bump(0.0, 1.0, self.sf)
        with pytest.raises(ValueError):
            make_bump(2.0, 1.0, self.sf)
        with pytest.raises(ValueError):
            make_bump(1.0, 200.0, self.sf)

    def test_mode_attachment(self):
        assert make_bump(1.0, 2.0, self.sf).l == 0
        assert make_bump(1.0, 2.0, self.sf, l=2).l == 2


# a taper whose rise band (width 1) and fall band (width 3) differ, which no
# make_bump gives: each band must use its own width
_UNEQUAL_BANDS = RadialTestFunction(support_lo=1.0, support_hi=11.0, rise_hi=2.0, fall_lo=8.0)


class TestUnequalBands:
    u = _UNEQUAL_BANDS

    def test_c2_and_support(self):
        assert self.u.support == (1.0, 11.0)
        for knot in (1.0, 2.0, 8.0, 11.0):
            assert abs(self.u.d2value(knot - 1e-12) - self.u.d2value(knot + 1e-12)) <= 1e-9
        assert self.u.value(0.99) == 0.0 and self.u.value(11.01) == 0.0
        assert np.all(self.u.value(np.linspace(2.0, 8.0, 13)) == 1.0)

    def test_derivatives_against_fd(self):
        ts = np.concatenate([np.linspace(1.01, 1.99, 23), np.linspace(8.01, 10.99, 23)])
        h = 1e-7
        fd1 = (self.u.value(ts + h) - self.u.value(ts - h)) / (2 * h)
        assert np.allclose(fd1, self.u.dvalue(ts), atol=1e-5)
        h2 = 1e-4  # t reaches 11 here, where t +- 1e-5 already rounds too coarsely
        fd2 = (self.u.value(ts + h2) - 2 * self.u.value(ts) + self.u.value(ts - h2)) / h2 ** 2
        assert np.allclose(fd2, self.u.d2value(ts), atol=1e-5)


class TestJet:
    """value, dvalue and d2value are the components of one jet, and the
    array path agrees with the scalar one point by point."""

    @pytest.mark.parametrize("u", [
        make_bump(1.0, 4.0, SpaceForm(5, 0.0, 100.0)),
        _UNEQUAL_BANDS,
    ], ids=["bump", "unequal-bands"])
    def test_accessors_are_jet_components(self, u):
        knots = [u.support_lo, u.rise_hi, u.fall_lo, u.support_hi]
        ts = np.linspace(0.5 * u.support_lo, u.support_hi + 1.0, 401)
        pieces = np.searchsorted(knots, ts)      # below, rise, plateau, fall, above
        assert set(pieces.tolist()) == {0, 1, 2, 3, 4}
        for t in knots + [ts]:
            jet = u.jet(t)
            for k, got in enumerate((u.value(t), u.dvalue(t), u.d2value(t))):
                assert type(got) is type(jet[k])
                assert np.asarray(got).tobytes() == np.asarray(jet[k]).tobytes()
        pointwise = np.array([u.jet(float(t)) for t in ts]).T
        assert pointwise.tobytes() == np.array(u.jet(ts)).tobytes()


class TestProfiles:
    """A Profiles batch evaluates row i of a 2-D t with function i, bit for
    bit as that function alone."""

    sf = SpaceForm(5, 1.0)
    us = [make_bump(0.5, 1.0, sf, l=0), make_bump(2.0, 90.0, sf, l=1),
          make_bump(1.0, 1.3, sf, l=2)]

    def _rows(self):
        # each row spans its own function's five pieces, plus another's
        return np.array([np.linspace(0.5 * u.support_lo, u.support_hi + 1.0, 64)
                         for u in self.us])

    def test_rows_are_each_functions_jet(self):
        t = self._rows()
        batch = Profiles(self.us).jet(t)
        for i, u in enumerate(self.us):
            assert np.array(batch)[:, i].tobytes() == np.array(u.jet(t[i])).tobytes()

    def test_rows_are_each_functions_laplacian(self):
        t = self._rows()
        batch = separated_laplacian(self.sf, Profiles(self.us), t)
        for i, u in enumerate(self.us):
            assert batch[i].tobytes() == separated_laplacian(self.sf, u, t[i]).tobytes()

    def test_take_gives_each_row_its_function(self):
        t, rows = self._rows(), np.array([2, 0, 0, 1])
        taken = Profiles(self.us).take(rows)
        assert taken.l.tolist() == [[2], [0], [0], [1]]
        assert taken.support[1].tolist() == [1.3, 1.0, 1.0, 90.0]
        batch = np.array(taken.jet(t[rows]))
        for k, i in enumerate(rows):
            assert batch[:, k].tobytes() == np.array(self.us[i].jet(t[i])).tobytes()

    def test_columns(self):
        p = Profiles(self.us)
        assert p.support[0].tolist() == [0.5, 2.0, 1.0]
        assert p.l.tolist() == [[0], [1], [2]]
        assert angular_eigenvalue(5, p.l).tolist() == [[0.0], [4.0], [10.0]]
        with pytest.raises(ValueError):
            angular_eigenvalue(5, np.array([[1], [-1]]))

    def test_rows_with_unequal_bands(self):
        us = self.us + [_UNEQUAL_BANDS]
        t = np.array([np.linspace(0.5 * u.support_lo, u.support_hi + 1.0, 64) for u in us])
        batch = np.array(Profiles(us).jet(t))
        for i, u in enumerate(us):
            assert batch[:, i].tobytes() == np.array(u.jet(t[i])).tobytes()


class TestSplines:
    """A Splines batch evaluates row i of a 2-D t with spline i, bit for bit
    as that spline alone, though the splines have different cell counts."""

    us = [SplineProfile(lo, hi, tuple(np.cos(np.linspace(0.0, 4.0, m - 3)) + 0.3))
          for (lo, hi), m in zip([(0.01, 50.0), (0.5, 3.0), (1e-4, 0.02), (2.0, 900.0)],
                                 (13, 23, 43, 83))]

    def _rows(self):
        # each row beyond both ends of its spline's support, its ends and
        # its knots included
        return np.array([np.concatenate([np.geomspace(0.3 * u.support_lo,
                                                      3.0 * u.support_hi, 250 - u.cells),
                                         u.edges]) for u in self.us])

    def test_rows_are_each_splines_jet(self):
        t = self._rows()
        batch = np.array(Splines(self.us).jet(t))
        for i, u in enumerate(self.us):
            solo = np.array(u.jet(t[i]))
            assert batch[:, i].tobytes() == solo.tobytes()
            assert (solo[:, t[i] < u.support_lo] == 0.0).all()
            assert (solo[:, t[i] > u.support_hi] == 0.0).all()
            assert (solo[0] != 0.0).sum() > 100

    def test_take_gives_each_row_its_spline(self):
        t, rows = self._rows(), np.array([3, 0, 0, 2])
        taken = Splines(self.us).take(rows)
        assert taken.l.tolist() == [[0]] * 4
        assert taken.support[0].tolist() == [self.us[i].support_lo for i in rows]
        assert taken.support[1].tolist() == [self.us[i].support_hi for i in rows]
        for got, i in zip(taken.edges, rows):
            assert got.tobytes() == self.us[i].edges.tobytes()
        batch = np.array(taken.jet(t[rows]))
        for k, i in enumerate(rows):
            assert batch[:, k].tobytes() == np.array(self.us[i].jet(t[i])).tobytes()

    def test_empty(self):
        empty = Splines([])
        assert empty.edges == [] and empty.support[0].size == 0
        assert all(d.shape == (0, 15) for d in empty.jet(np.empty((0, 15))))


class TestSplineProfile:
    """A cubic B-spline in log t with three functions dropped at each end."""

    u = SplineProfile(0.01, 50.0, (0.3, -1.0, 0.7, 0.2, 0.9, -0.4, 0.5))

    def _knots(self):
        return np.geomspace(0.01, 50.0, self.u.cells + 1)

    def test_basis_is_a_partition_of_unity(self):
        r = np.linspace(0.0, 1.0, 11)
        b, b_r, b_rr = bspline_basis(r)
        assert b.shape == (11, 4)
        assert np.allclose(b.sum(axis=1), 1.0, rtol=0, atol=1e-15)
        assert np.allclose(b_r.sum(axis=1), 0.0, atol=1e-15)
        assert np.allclose(b_rr.sum(axis=1), 0.0, atol=1e-15)

    def test_derivatives_against_central_differences(self):
        knots = self._knots()
        # three points inside every cell, away from the knots
        ts = (knots[:-1, None] * (knots[1:, None] / knots[:-1, None])
              ** np.array([0.2, 0.5, 0.8])).ravel()
        u, d1, d2 = self.u.jet(ts)
        h = 1e-6 * ts
        up, d1p, _ = self.u.jet(ts + h)
        um, d1m, _ = self.u.jet(ts - h)
        assert np.allclose((up - um) / (2 * h), d1, rtol=1e-6, atol=1e-6 * np.abs(d1).max())
        assert np.allclose((d1p - d1m) / (2 * h), d2, rtol=1e-6, atol=1e-6 * np.abs(d2).max())

    def test_c2_at_every_knot_and_zero_at_the_ends(self):
        knots = self._knots()
        scale = [np.abs(d).max() for d in self.u.jet(np.geomspace(0.01, 50.0, 2001))]
        for t in knots:
            left = self.u.jet(t * (1 - 1e-12))
            right = self.u.jet(t * (1 + 1e-12))
            for k in range(3):
                assert abs(left[k] - right[k]) <= 1e-9 * scale[k]
        for t in (0.01, 50.0):
            assert all(abs(d) <= 1e-12 * s for d, s in zip(self.u.jet(t), scale))
        for t in (0.005, 0.00999, 50.01, 900.0):
            assert self.u.jet(t) == (0.0, 0.0, 0.0)

    def test_scalar_t_gives_floats(self):
        for t in (0.5, np.float64(0.5), 0.001):
            assert all(type(d) is float for d in self.u.jet(t))
        assert self.u.jet(0.5) == tuple(float(d[0]) for d in self.u.jet(np.array([0.5])))

    @pytest.mark.parametrize("form", ["usq", "gradrad", "delta"])
    def test_side_integrates_one_profile(self, form):
        # a batch of one through verify.side against Gauss-Legendre on each
        # cell in s = log t, where u is a polynomial
        sf = SpaceForm(5, 0.0)
        got = side(sf, Const(1.0), self.u, form)
        x, w = np.polynomial.legendre.leggauss(20)
        s = np.log(self._knots())
        nodes = (0.5 * (s[:-1, None] + s[1:, None]) + 0.5 * (s[1:, None] - s[:-1, None]) * x)
        t = np.exp(nodes)
        u, d1, _ = self.u.jet(t)
        q = {"usq": u ** 2, "gradrad": d1 ** 2,
             "delta": separated_laplacian(sf, self.u, t) ** 2}[form]
        want = float((q * volume_weight(sf, t) * t * 0.5 * np.diff(s)[:, None] * w).sum())
        assert got.value == pytest.approx(want, rel=1e-9)

    def test_invalid(self):
        with pytest.raises(ValueError):
            SplineProfile(0.0, 1.0, (1.0,))
        with pytest.raises(ValueError):
            SplineProfile(2.0, 1.0, (1.0,))
        with pytest.raises(ValueError):
            SplineProfile(1.0, 2.0, ())
