"""Tests for generating vector fields of contractions and their flows."""

import math

import numpy as np
import pytest

from difflab import (
    AnalyticField,
    Bump,
    BumpPerturbation,
    DomainError,
    FlowTime,
    IntervalDiffeo,
    Moebius,
    NotAContraction,
    SzekeresField,
    TailNotReached,
    flow_group_residual,
    flow_time,
    identity,
    metric,
    moebius_field,
    szekeres_bv_check,
    szekeres_field,
)

LN2 = math.log(2.0)


class _Counting(IntervalDiffeo):
    """A map that counts the calls of its value method."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def value(self, x):
        self.calls += 1
        return self.f.value(x)

    def log_deriv(self, x):
        return self.f.log_deriv(x)

    def inverse_map(self):
        return self.f.inverse_map()


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
        assert np.max(np.abs(gaps - 1.0)) < 1e-6

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

    def test_fixed_points_are_not_transported(self):
        # 0 never reaches the reference interval: transporting it would spin
        # through the whole iteration budget
        f = _Counting(Moebius(1.05))
        X = SzekeresField(f)
        before = f.calls
        out = X.X(np.array([0.0, 0.5, 1.0]))
        assert out[0] == 0.0 and out[2] == 0.0 and out[1] < 0.0
        assert f.calls - before < 100

    @pytest.mark.parametrize("bad", [0.0, 1.0])
    def test_tau_rejects_fixed_points(self, bad):
        f = _Counting(Moebius(2.0))
        X = SzekeresField(f)
        before = f.calls
        with pytest.raises(DomainError):
            X.tau(np.array([bad, 0.5]))
        assert f.calls == before


class TestAnalyticField:
    @pytest.mark.parametrize("family", ["parabolic_right", "parabolic_both"])
    def test_tau_round_trip(self, family):
        # no closed-form tau^-1: solved by bisection on -tau
        Y = AnalyticField(family, 0.8)
        xs = np.linspace(0.01, 0.99, 99)
        assert np.max(np.abs(Y.tau_inv(Y.tau(xs)) - xs)) < 1e-12


class TestFlowTime:
    def test_half_time_oracle(self):
        X = AnalyticField("bridge", LN2)
        # h_{sqrt 2}(1/2) = sqrt 2 - 1
        assert flow_time(X, 0.5, 0.5) == pytest.approx(math.sqrt(2.0) - 1.0,
                                                       abs=1e-7)

    def test_zero_time_identity(self):
        X = AnalyticField("parabolic_both", 1.0)
        for x in (0.0, 0.3, 0.77, 1.0):
            assert flow_time(X, 0.0, x) == x

    def test_unit_time_is_moebius(self):
        X = AnalyticField("bridge", LN2)
        for x in (0.1, 0.5, 0.9):
            assert flow_time(X, 1.0, x) == pytest.approx(x / (2.0 - x),
                                                         abs=1e-7)

    def test_endpoints_fixed(self):
        X = moebius_field(2.0)
        assert flow_time(X, 3.7, 0.0) == 0.0
        assert flow_time(X, -2.1, 1.0) == 1.0

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
