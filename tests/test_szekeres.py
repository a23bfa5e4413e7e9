"""Tests for generating vector fields of contractions and their flows."""

import math

import numpy as np
import pytest

import difflab.szekeres as szekeres
from difflab import (
    DEFAULT_CONFIG,
    AnalyticField,
    Bump,
    BumpPerturbation,
    DomainError,
    FlowTime,
    Moebius,
    NotAContraction,
    SzekeresField,
    TailNotReached,
    ToleranceConfig,
    TransportBudgetExceeded,
    example_two_component_action,
    flow_group_residual,
    identity,
    metric,
    moebius_field,
    regularize_flow,
    szekeres_bv_check,
    szekeres_field,
)
from difflab.diffeo import ChartMap
from difflab.gridfn import TAIL_TOL, variation

LN2 = math.log(2.0)


class TestSzekeresField:
    def test_moebius_oracle(self):
        # the flow of x/(2-x) is h_{2^t}; differentiating at t=0 gives
        # X(x) = -ln 2 * x (1 - x)
        X = szekeres_field(Moebius(2.0))
        xs = np.linspace(0.05, 0.95, 181)
        target = -LN2 * xs * (1.0 - xs)
        assert np.max(np.abs(X.X(xs) - target)) < 1e-6

    def test_roundtrip_of_analytic_time_one(self):
        # the generating field of the time-1 map of a known field is the
        # field itself
        Y = AnalyticField("parabolic_right", 0.8)
        X = szekeres_field(FlowTime(Y, 1.0))
        xs = np.linspace(0.05, 0.95, 91)
        assert np.max(np.abs(X.X(xs) - Y.X(xs))) < 1e-5

    def test_not_a_contraction(self):
        with pytest.raises(NotAContraction):
            szekeres_field(Moebius(0.5))  # f(x) > x

    def test_identity_rejected(self):
        with pytest.raises(NotAContraction):
            szekeres_field(identity())

    def test_invariance_pushforward(self):
        # X(f(x)) = X(x) Df(x) on the resolved window
        f = Moebius(2.0)
        X = szekeres_field(f)
        xs = np.linspace(0.1, 0.9, 41)
        lhs = X.X(f.value(xs))
        rhs = X.X(xs) * f.deriv(xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-6 * (1 + np.max(np.abs(rhs)))

    def test_unit_return_time(self):
        # tau(f(x)) - tau(x) = 1 for the constructed field
        f = BumpPerturbation(Moebius(2.0), [Bump(0.45, 0.2, 0.05)])
        X = szekeres_field(f)
        xs = np.linspace(0.2, 0.8, 13)
        gaps = X.tau(f.value(xs)) - X.tau(xs)
        assert np.max(np.abs(gaps - 1.0)) < 1e-9

    def test_period_residual_is_the_series_truncation(self):
        # tau integrates 1/X of the X table itself, so its error over one
        # period is that of the truncated series, not of a quadrature
        X = SzekeresField(Moebius(4.0))
        assert X.diagnostics()["period_residual"] <= 1e-10

    @pytest.mark.parametrize("a", [2.0, 4.0])
    def test_tau_in_closed_form(self, a):
        # X = -ln(a) x (1 - x), so tau = -ln(x / (1 - x)) / ln a, which is 0
        # at the anchor 1/2
        X = SzekeresField(Moebius(a))
        xs = np.linspace(X._ref_x[0], X._ref_x[-1], 2001)
        exact = -np.log(xs / (1.0 - xs)) / math.log(a)
        assert X.anchor == 0.5
        assert np.max(np.abs(X.tau(xs) - exact)) < 5e-10

    @pytest.mark.parametrize("f", [
        Moebius(2.0),
        BumpPerturbation(Moebius(2.0), [Bump(0.45, 0.2, 0.05)]),
    ], ids=["moebius", "bumped"])
    def test_tau_inv_inverts_tau(self, f):
        # on the reference interval both are tables of one interpolant
        X = szekeres_field(f)
        xs = np.linspace(X._ref_x[0], X._ref_x[-1], 2001)
        assert np.max(np.abs(X.tau_inv(X.tau(xs)) - xs)) <= 1e-15

    @pytest.mark.parametrize("f", [
        Moebius(2.0),
        Moebius(4.0),
        BumpPerturbation(Moebius(2.0), [Bump(0.4, 0.2, 0.05)]),
    ], ids=["moebius2", "moebius4", "bumped"])
    def test_tau_inv_inverts_tau_off_the_reference_interval(self, f):
        # tau shifts by whole periods and the table is scaled to period 1,
        # so tau^-1 walks out the whole periods that tau walked in
        X = szekeres_field(f)
        xs = np.linspace(0.05, 0.95, 2001)
        assert np.max(np.abs(X.tau_inv(X.tau(xs)) - xs)) <= 4.4e-16

    @pytest.mark.parametrize("f", [
        Moebius(2.0),
        Moebius(1.05),
        BumpPerturbation(Moebius(2.0), [Bump(0.45, 0.2, 0.05)]),
    ])
    def test_table_matches_series(self, f):
        X = szekeres_field(f)
        xs = np.linspace(0.01, 0.99, 99)
        ref = X._X_series(xs)
        assert np.max(np.abs(X.X(xs) / ref - 1.0)) < 1e-8

    def test_series_summed_once(self):
        X = szekeres_field(Moebius(2.0))
        calls = []
        X.sigma = lambda *a, **k: calls.append(1)
        X.X(np.linspace(0.0, 1.0, 65))
        assert calls == []

    def test_fixed_points_are_not_transported(self, leaf_counter):
        # 0 never reaches the reference interval: transporting it would spin
        # through the whole iteration budget
        f = leaf_counter(Moebius(1.05))
        X = SzekeresField(f)
        before = f.calls
        out = X.X(np.array([0.0, 0.5, 1.0]))
        assert out[0] == 0.0 and out[2] == 0.0 and out[1] < 0.0
        assert f.calls - before < 100

    @pytest.mark.parametrize("bad", [0.0, 1.0])
    def test_tau_rejects_fixed_points(self, bad, leaf_counter):
        f = leaf_counter(Moebius(2.0))
        X = SzekeresField(f)
        before = f.calls
        with pytest.raises(DomainError):
            X.tau(np.array([bad, 0.5]))
        assert f.calls == before


def _linear_scan(f, a, cfg):
    """Reference for the truncation search: every i >= 0 in turn until
    var(log Df; [0, f^i(a)]), on the same 513 probes, is below TAIL_TOL;
    f^i(a) read as the search reads it."""
    z, i = a, 0
    while True:
        tail = variation(f.log_deriv(np.linspace(0.0, z, 513)))
        if tail < TAIL_TOL:
            return max(i, 1), tail
        i += 1
        power = f._iterate_fast(i)
        z = float(f.value(np.array(z)) if power is None else power.value(np.array(a)))


_BUMPED = BumpPerturbation(Moebius(2.0), [Bump(0.4, 0.2, 0.05)])


class TestTruncationSearch:
    @pytest.mark.parametrize("f, cfg", [
        (Moebius(2.0), DEFAULT_CONFIG),
        (_BUMPED, DEFAULT_CONFIG),
        (ChartMap(example_two_component_action().generators[0], 0.5, 1.0),
         DEFAULT_CONFIG),
        # a closed-form power; near the parabolic end 1 the scan needs
        # about N / 0.8 steps, so a coarser grid keeps it short
        (FlowTime(AnalyticField("parabolic_right", 0.8), 1.0),
         ToleranceConfig(grid_N=64)),
    ], ids=["moebius", "bumped", "chart", "parabolic_flow"])
    def test_matches_linear_scan(self, f, cfg):
        X = SzekeresField(f, cfg)
        assert (X.n_terms, X.tail_bound) == _linear_scan(f, 1.0 - 1.0 / cfg.grid_N, cfg)
        assert X._n_ref == _linear_scan(f, X.anchor, cfg)[0]

    @pytest.mark.parametrize("f", [Moebius(2.0), _BUMPED], ids=["moebius", "bumped"])
    def test_tail_evaluations_are_logarithmic(self, f, monkeypatch):
        calls = []

        def counted(v, *args, **kwargs):
            calls.append(1)
            return variation(v, *args, **kwargs)

        monkeypatch.setattr(szekeres, "variation", counted)
        X = SzekeresField(f)
        bound = sum(2 * math.ceil(math.log2(n)) + 3 for n in (X.n_terms, X._n_ref))
        assert len(calls) <= bound

    def test_raises_at_the_budget(self, monkeypatch):
        # near-parabolic at 0: the majorant needs thousands of terms
        monkeypatch.setattr(szekeres, "MAX_ITER", 64)
        with pytest.raises(TailNotReached, match="after 64 terms"):
            SzekeresField(Moebius(1.001))

    def test_sigma_takes_one_jet_per_term(self, leaf_counter):
        f = leaf_counter(Moebius(2.0))
        X = SzekeresField(f)
        before = f.calls
        X.sigma(np.linspace(0.2, 0.8, 7), terms=10)
        assert f.calls - before == 11


class TestFieldDerivative:
    def test_szekeres_field_has_no_numeric_DX(self):
        with pytest.raises(NotImplementedError):
            szekeres_field(Moebius(2.0)).DX(np.array(0.5))

    def test_d2_of_the_time_one_map(self):
        # the time-1 map is f itself, so their d*_2 distances to the
        # identity agree; d_2 falls back to differences of the sampled
        # log-derivatives, as for maps without an affine derivative
        ft = FlowTime(szekeres_field(_BUMPED), 1.0)
        d2 = metric(ft, identity(), "2", starred=True)
        assert d2 == pytest.approx(metric(_BUMPED, identity(), "2", starred=True),
                                   rel=1e-3)


class TestTransportBudget:
    # Moebius(2) roughly doubles points near 0 under f^-1: 1e-30 is about
    # 100 steps from the reference interval, 1e-10 about 33
    @pytest.fixture
    def small_budget(self, monkeypatch):
        monkeypatch.setattr(szekeres, "MAX_ITER", 64)

    def test_X_raises_instead_of_reading_the_table_end(self, small_budget):
        X = SzekeresField(Moebius(2.0))
        with pytest.raises(TransportBudgetExceeded):
            X.X(np.array([1e-30, 0.5]))

    def test_every_walk_raises_the_same_type(self, small_budget):
        X = SzekeresField(Moebius(2.0))
        with pytest.raises(TransportBudgetExceeded):
            X.tau(np.array([1e-30]))
        with pytest.raises(TransportBudgetExceeded):
            X.tau_inv(np.array([200.0]))
        with pytest.raises(TransportBudgetExceeded):
            X.flow_log_deriv(np.array([1e-30]), 0.5)
        assert issubclass(TransportBudgetExceeded, RuntimeError)

    def test_stalled_point_fails_at_its_first_step(self, leaf_counter):
        # within an ulp of 1 Moebius(2) rounds f(x) to x, so the inbound walk
        # can never arrive: it raises on its first step, not after the
        # default MAX_ITER = 65536 steps
        f = leaf_counter(Moebius(2.0))
        ft = FlowTime(szekeres_field(f), 0.5)
        x = np.nextafter(1.0, 0.0)
        for call in (ft.value, ft.jet, ft.log_deriv):
            before = f.calls
            with pytest.raises(TransportBudgetExceeded):
                call(x)
            assert f.calls - before <= 3

    def test_within_budget(self, small_budget):
        X = SzekeresField(Moebius(2.0))
        assert float(X.X(np.array(1e-10))) == pytest.approx(-LN2 * 1e-10,
                                                            rel=1e-6)


def _bumped():
    return BumpPerturbation(Moebius(2.0), [Bump(0.45, 0.2, 0.08)])


class TestFlowLogDeriv:
    @pytest.mark.parametrize("make", [
        lambda: SzekeresField(Moebius(2.0)),
        lambda: SzekeresField(_bumped()),
        lambda: AnalyticField("parabolic_right", 0.8),
    ])
    def test_matches_field_ratio_with_per_point_times(self, make):
        # (f^t x, log Df^t x) with log Df^t = log(X(f^t x) / X(x))
        X = make()
        xs = np.linspace(0.002, 0.998, 199)
        ts = np.linspace(-1.5, 2.5, xs.size)
        y, ld = X.flow_log_deriv(xs, ts)
        assert np.max(np.abs(y - X.flow(xs, ts))) < 1e-12
        assert np.max(np.abs(ld - np.log(X.X(y) / X.X(xs)))) < 1e-10

    @pytest.mark.parametrize("make", [
        lambda: SzekeresField(_bumped()),
        lambda: AnalyticField("bridge", 0.7),
        lambda: AnalyticField("parabolic_right", 0.8),
        lambda: regularize_flow(szekeres_field(Moebius(2.0))).field,
    ])
    def test_scalar_time_equals_the_same_time_per_point(self, make):
        # a scalar time and that time given to every point read the same
        # bits, time 0 included
        X = make()
        xs = np.linspace(0.002, 0.998, 199)
        for si in (-1.5, -0.25, 0.0, 1.0 / 64, 0.5, 1.0, 2.5):
            y, ld = X.flow_log_deriv(xs, si)
            yi, ldi = X.flow_log_deriv(xs, np.full(xs.size, si))
            assert y.shape == ld.shape == xs.shape
            assert np.array_equal(y, yi)
            assert np.array_equal(ld, ldi)

    def test_flow_jet_scalar_time_keeps_the_ends(self):
        # FlowTime's jet is one flow_log_deriv call over the interior; the
        # end points stay put, and log Df^t is t * DX(end) at them and
        # within _EDGE_EPS of them; time 0 is the identity
        X = SzekeresField(_bumped())
        xs = np.concatenate([[0.0, 1e-14], np.linspace(0.01, 0.99, 99),
                             [1.0 - 1e-14, 1.0]])
        e0, e1 = X.edge_rates()
        for si in (-0.75, 0.125, 0.5, 1.0):
            val, ld = FlowTime(X, si).jet(xs)
            y, ratio = X.flow_log_deriv(xs[1:-1], si)
            assert np.array_equal(val[1:-1], y) and np.array_equal(ld[2:-2], ratio[1:-1])
            assert np.array_equal(val[[0, -1]], xs[[0, -1]])
            assert np.array_equal(ld[[0, 1, -2, -1]], [si * e0, si * e0, si * e1, si * e1])
        val, ld = FlowTime(X, 0.0).jet(xs)
        assert np.array_equal(val, xs) and not np.any(ld)

    def test_field_doors_check_their_points(self):
        # the walks step through kernels, so the field checks its input
        X = SzekeresField(Moebius(2.0))
        with pytest.raises(DomainError):
            X.flow_log_deriv(np.array([1.5]), 0.5)
        with pytest.raises(DomainError):
            X.sigma(np.array([1.5]))

    def test_one_walk_in_and_one_out(self, leaf_counter):
        # four walks (tau, tau^-1, X at both ends) took 95 leaf calls here
        f = leaf_counter(Moebius(2.0))
        X = SzekeresField(f)
        before = f.calls
        FlowTime(X, 0.5).log_deriv(np.linspace(0.0, 1.0, 257))
        assert f.calls - before <= 70


class TestAnalyticField:
    @pytest.mark.parametrize("family", ["parabolic_right", "parabolic_both"])
    def test_tau_round_trip(self, family):
        # no closed-form tau^-1: solved by bisection on -tau
        Y = AnalyticField(family, 0.8)
        xs = np.linspace(0.01, 0.99, 99)
        assert np.max(np.abs(Y.tau_inv(Y.tau(xs)) - xs)) < 1e-12

    def test_bridge_tau_in_closed_form(self):
        # tau = -(logit x - logit 1/2) / lam, and tau^-1 is the logistic map
        Y = AnalyticField("bridge", 0.8)
        xs = np.linspace(0.01, 0.99, 99)
        logit = np.log(xs / (1.0 - xs))
        assert np.max(np.abs(Y.tau(xs) + logit / 0.8)) < 1e-12
        assert np.max(np.abs(Y.tau_inv(Y.tau(xs)) - xs)) < 1e-12


class TestFlowTime:
    def test_half_time_oracle(self):
        X = AnalyticField("bridge", LN2)
        # h_{sqrt 2}(1/2) = sqrt 2 - 1
        assert float(FlowTime(X, 0.5).value(0.5)) == pytest.approx(
            math.sqrt(2.0) - 1.0, abs=1e-7)

    def test_zero_time_identity(self):
        X = AnalyticField("parabolic_both", 1.0)
        for x in (0.0, 0.3, 0.77, 1.0):
            assert float(FlowTime(X, 0.0).value(x)) == x

    def test_unit_time_is_moebius(self):
        X = AnalyticField("bridge", LN2)
        for x in (0.1, 0.5, 0.9):
            assert float(FlowTime(X, 1.0).value(x)) == pytest.approx(
                x / (2.0 - x), abs=1e-7)

    def test_endpoints_fixed(self):
        X = moebius_field(2.0)
        assert float(FlowTime(X, 3.7).value(0.0)) == 0.0
        assert float(FlowTime(X, -2.1).value(1.0)) == 1.0

    def test_log_deriv_matches_field_ratio(self):
        # log Df^t(x) = log(X(f^t x) / X(x))
        X = moebius_field(2.0)
        f = FlowTime(X, 0.6)
        xs = np.linspace(0.05, 0.95, 61)
        lhs = f.log_deriv(xs)
        rhs = np.log(X.X(f.value(xs)) / X.X(xs))
        assert np.max(np.abs(lhs - rhs)) < 1e-6

    def test_variation_bound_for_smooth_fields(self):
        # var(log Df^t) <= |t| var(DX) for the flow of an analytic field
        X = AnalyticField("parabolic_right", 0.7)
        xs = np.linspace(0.0, 1.0, 4097)
        var_DX = float(np.abs(np.diff(X.DX(xs))).sum())
        for t in (0.25, 1.0, 2.5):
            ld = FlowTime(X, t).log_deriv(xs)
            var_ld = float(np.abs(np.diff(ld)).sum())
            assert var_ld <= abs(t) * var_DX + 1e-6


class TestFlowGroupLaw:
    def test_trivial(self):
        assert flow_group_residual(moebius_field(2.0), 0.0, 0.0) == pytest.approx(
            0.0, abs=1e-12)

    def test_moebius_closed_form(self):
        assert flow_group_residual(moebius_field(2.0), 0.3, 0.7) < 1e-6

    def test_szekeres_constructed_field(self):
        X = szekeres_field(Moebius(2.0))
        assert flow_group_residual(X, 0.45, -0.2) < 1e-5

    def test_random_pairs(self):
        rng = np.random.default_rng(3)
        X = moebius_field(2.0)
        for _ in range(5):
            s, t = rng.uniform(-1.5, 1.5, size=2)
            assert flow_group_residual(X, float(s), float(t)) < 1e-6


class TestBvCheck:
    def test_moebius(self):
        rep = szekeres_bv_check(Moebius(2.0), 0.5)
        assert rep["abs_log_df0"] == pytest.approx(LN2, abs=1e-12)
        assert rep["inequality_holds"]

    def test_parabolic_at_zero_tail_unreachable(self):
        # with a parabolic fixed point at 0 the truncation majorant
        # var(log Df; [0, f^i(a)]) decays like 1/i, so the certified series
        # cannot reach the default tail tolerance and must say so
        f = FlowTime(AnalyticField("parabolic_both", 1.0), 1.0)
        with pytest.raises(TailNotReached):
            szekeres_bv_check(f, 0.5)

    def test_bumped_contraction(self):
        f = BumpPerturbation(Moebius(2.0), [Bump(0.4, 0.2, 0.1)])
        assert szekeres_bv_check(f, 0.5)["inequality_holds"]

    def test_non_contraction_rejected(self):
        with pytest.raises(NotAContraction):
            szekeres_bv_check(Moebius(0.8), 0.5)

    def test_anchor_must_be_interior(self):
        with pytest.raises(ValueError):
            szekeres_bv_check(Moebius(2.0), 1.0)


class TestFlowTimeAsDiffeo:
    def test_metric_consistency(self):
        # FlowTime(X, 1) of the Moebius field is h_2 as a metric-space point
        f = FlowTime(moebius_field(2.0), 1.0)
        assert metric(f, Moebius(2.0), "1") < 1e-7

    def test_group_inverse(self):
        f = FlowTime(moebius_field(2.0), 0.8)
        g = FlowTime(moebius_field(2.0), -0.8)
        xs = np.linspace(0.05, 0.95, 31)
        assert np.max(np.abs(f.value(g.value(xs)) - xs)) < 1e-8
