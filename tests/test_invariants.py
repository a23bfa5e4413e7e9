"""Tests for conjugacy invariants: asymptotic derivative variation, the
circle-map obstruction to embedding in a flow, and cocycle drift."""

import math
import tracemalloc

import pytest

from difflab import (
    ActionTuple,
    AnalyticField,
    Bump,
    BumpPerturbation,
    FlowTime,
    Moebius,
    Rotation,
    asymptotic_variation,
    coboundary_drift,
    example_two_component_action,
    geometric_mean_conjugacy,
    herman_average,
    identity,
    mather_inequality_check,
    mather_invariant,
    moebius_field,
)
from difflab import invariants
from difflab.diffeo import ChartMap

LN2 = math.log(2.0)


class TestAsymptoticVariation:
    def test_moebius_limit(self):
        # var(log Df^n)/n for x/(2-x) converges to |log Df(0)| + |log Df(1)|
        ve = asymptotic_variation(Moebius(2.0))
        assert ve.limit == pytest.approx(2.0 * LN2, abs=1e-6)
        assert ve.lower_bound == pytest.approx(2.0 * LN2, abs=1e-12)

    def test_closed_form_powers_need_no_walk(self, monkeypatch):
        walks = []

        def counted(*args):
            walks.append(1)
            return walk_words(*args)

        walk_words = invariants._walk_words
        monkeypatch.setattr(invariants, "_walk_words", counted)
        ve = asymptotic_variation(Moebius(2.0))
        assert walks == []
        assert ve.limit == pytest.approx(2.0 * LN2, rel=1e-15)
        assert ve.uncertainty == 0.0

    def test_identity_vanishes(self):
        assert asymptotic_variation(identity()).limit == 0.0

    def test_homogeneity_under_squaring(self):
        v1 = asymptotic_variation(Moebius(2.0)).limit
        v2 = asymptotic_variation(Moebius(4.0)).limit
        assert v2 == pytest.approx(2.0 * v1, abs=1e-9)

    def test_limit_respects_lower_bound(self):
        for f in (Moebius(2.0), Moebius(0.3),
                  BumpPerturbation(Moebius(2.0), [Bump(0.4, 0.2, 0.1)])):
            ve = asymptotic_variation(f)
            assert ve.limit >= ve.lower_bound - 1e-6

    def test_parabolic_endpoints_decay_to_zero(self):
        # both endpoint multipliers vanish, so var/n must decay to 0
        f = FlowTime(AnalyticField("parabolic_both", 1.0), 1.0)
        ve = asymptotic_variation(f, schedule=(64, 128, 256, 512))
        vals = [v for _, v in ve.pairs]
        assert ve.lower_bound == 0.0
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert ve.limit < 0.05

    def test_conjugated_rotation_stays_bounded(self, circle_pair):
        # f^n = h R^n h^-1, so var(log Df^n) <= 2 var(log Dh) = 4 ln 1.5 on
        # the circle for every n (largest measured: 1.6157 at n = 4)
        (f,) = circle_pair.generators
        ve = asymptotic_variation(f)
        assert ve.lower_bound == 0.0
        for n, v in ve.pairs:
            assert n * v <= 4.0 * math.log(1.5) + 1e-3

    def test_bad_schedule_rejected(self):
        with pytest.raises(ValueError):
            asymptotic_variation(Moebius(2.0), schedule=(0, 4))
        with pytest.raises(ValueError):
            asymptotic_variation(Moebius(2.0), schedule=())


class TestMatherInvariant:
    def test_flowable_map_has_trivial_invariant(self):
        mi = mather_invariant(Moebius(2.0))
        assert mi.var_logDM < 1e-4
        assert mi.seam_residual < 1e-6
        assert not mi.inverted

    def test_expanding_map_is_inverted(self):
        mi = mather_invariant(Moebius(0.5))
        assert mi.inverted
        assert mi.var_logDM < 1e-4

    def test_bumped_map_is_obstructed(self):
        f = BumpPerturbation(Moebius(2.0), [Bump(0.4, 0.2, 0.1)])
        assert mather_invariant(f).var_logDM > 0.01

    def test_window_stability(self):
        a = mather_invariant(Moebius(2.0), m=8, n=8).var_logDM
        b = mather_invariant(Moebius(2.0), m=10, n=10).var_logDM
        assert abs(a - b) < 1e-4

    def test_inequality_check(self):
        rep = mather_inequality_check(Moebius(2.0))
        assert rep["holds"]
        assert rep["vinf"] == pytest.approx(2.0 * LN2, abs=1e-6)
        assert rep["slack"] >= -(rep["vinf_uncertainty"] + 1e-4)

    @pytest.mark.parametrize("f", [
        FlowTime(moebius_field(2.0), 0.3),
        FlowTime(moebius_field(2.0), 0.8),
        FlowTime(moebius_field(2.0), 1.0),
        ChartMap(Moebius(2.0), 0.0, 1.0),
    ], ids=["flow_0.3", "flow_0.8", "flow_1", "chart_moebius"])
    def test_flow_map_is_a_rotation(self, f):
        # times of an analytic flow: M_f is a rotation.  The far-end field
        # is built from an exact reflection (the bridge flow at time -t, a
        # chart of the reflected Moebius map); the generic chart read 0.448,
        # 0.588, 1.038 and 2.0e-4
        mi = mather_invariant(f)
        assert mi.var_logDM <= 1e-8
        assert mi.seam_residual <= 1e-8

    def test_anchor_fixed_rejected(self):
        with pytest.raises(ValueError):
            mather_invariant(identity())

    def test_interior_fixed_point_rejected(self):
        # moves 1/2 but fixes [0.55, 1] pointwise
        f = BumpPerturbation(identity(), [Bump(0.3, 0.25, 0.05)])
        with pytest.raises(ValueError):
            mather_invariant(f)


class TestCoboundaryDrift:
    def test_identity_trivial(self):
        rep = coboundary_drift(ActionTuple(generators=(identity(),)), n=8)
        assert rep["defect"] == pytest.approx(0.0, abs=1e-12)
        assert rep["drift"] == pytest.approx(0.0, abs=1e-12)
        assert rep["lower_bound_holds"]

    def test_moebius_drift_oracle(self):
        # ||c(f^n)||/n -> var(log Df) envelope = 2 ln 2 for x/(2-x)
        rep = coboundary_drift(ActionTuple(generators=(Moebius(2.0),)), n=32)
        assert rep["drift"] == pytest.approx(2.0 * LN2, abs=1e-3)
        assert rep["defect"] == pytest.approx(rep["drift"],
                                              rel=0.1)
        assert rep["lower_bound_holds"]

    def test_box_walk_stops_at_the_last_word(self, leaf_counter):
        # one jet per step and n - 1 steps per row and batch; a step past
        # the n-th word of each row cost 33 of 1056 steps at n = 32, d = 2.
        # The 4 rows of g (2,049 points each) fit in one batch
        f = leaf_counter(Moebius(2.0))
        g = leaf_counter(Moebius(3.0))
        coboundary_drift(ActionTuple(generators=(f, g)), n=4)
        assert g.calls == 3
        # f: one row of 3 steps, then value and deriv at x and the
        # max(8n, 512) = 512 steps of the drift orbit
        assert f.calls == 3 + 2 + 512

    def test_box_budget_guard(self):
        # one budget check, in the word walk, serves every box average
        t = ActionTuple(generators=(Moebius(2.0), Moebius(3.0)))
        with pytest.raises(ValueError, match="word budget"):
            coboundary_drift(t, n=1001)
        with pytest.raises(ValueError, match="word budget"):
            geometric_mean_conjugacy(t, n=1001)
        circle = ActionTuple(generators=(Rotation(0.1), Rotation(0.2)))
        with pytest.raises(ValueError, match="word budget"):
            herman_average(circle, 1001)

    def test_box_is_streamed(self):
        # the box average keeps one word per level alive, not all n^d
        # (value, log-derivative, cocycle) triples: 64.5 MB when the 1024
        # words of this box were listed first
        tracemalloc.start()
        try:
            coboundary_drift(example_two_component_action(), n=32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6
