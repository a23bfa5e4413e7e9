"""Tests for interval/circle diffeomorphisms: group operations, metrics,
rotation numbers, commutators, and fixed-point analysis."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difflab import (
    ActionTuple,
    AnalyticField,
    Bump,
    BumpPerturbation,
    CircleGrid,
    Composition,
    DomainError,
    FlowTime,
    GridFunction,
    GridLogDeriv,
    InverseMap,
    Moebius,
    Rotation,
    bisect_monotone,
    circle_compose,
    circle_inverse,
    commutator_residual,
    compose,
    evaluate,
    fixed_point_analysis,
    identity,
    inverse,
    iterate,
    metric,
    moebius_field,
    rotation_number,
)
from difflab.deform import _SmoothConjugacy
from difflab.diffeo import CircleDiffeo

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def conjugated_rotation(alpha, amp=0.2, freq=1, N=4096):
    x = np.linspace(0.0, 1.0, N + 1)
    w = 2.0 * math.pi * freq
    h = CircleGrid(GridFunction(amp * np.sin(w * x) / w),
                   GridFunction(np.log1p(amp * np.cos(w * x))))
    return circle_compose(h, circle_compose(Rotation(alpha),
                                            circle_inverse(h)))


class TestEvaluate:
    def test_moebius_log_deriv_at_zero(self):
        assert evaluate(Moebius(2.0), 0.0, "log_deriv") == pytest.approx(
            -math.log(2.0), abs=1e-14)

    def test_identity_affine_deriv(self):
        assert evaluate(identity(), 0.3, "affine_deriv") == 0.0

    def test_moebius_value(self):
        # x/(2-x) at 1/2
        assert evaluate(Moebius(2.0), 0.5, "value") == pytest.approx(
            1.0 / 3.0, abs=1e-15)

    def test_domain_violation(self):
        with pytest.raises(ValueError):
            evaluate(Moebius(2.0), 1.5, "value")


class TestGroupOps:
    def test_moebius_composition_law(self):
        h = compose(Moebius(2.0), Moebius(3.0))
        x = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(h.value(x) - Moebius(6.0).value(x))) < 1e-14

    def test_moebius_inverse(self):
        h = inverse(Moebius(2.0))
        x = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(h.value(x) - Moebius(0.5).value(x))) < 1e-12

    def test_iterate_zero_is_identity(self):
        h = iterate(Moebius(2.0), 0)
        x = np.linspace(0.0, 1.0, 11)
        assert np.max(np.abs(h.value(x) - x)) == 0.0

    def test_iterate_matches_repeated_composition(self):
        f = Moebius(2.0)
        x = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(iterate(f, 3).value(x)
                             - Moebius(8.0).value(x))) < 1e-13

    def test_negative_iterate(self):
        f = Moebius(2.0)
        x = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(iterate(f, -2).value(x)
                             - Moebius(0.25).value(x))) < 1e-12

    def test_commuting_iterate_distributes(self):
        f, g = Moebius(2.0), Moebius(3.0)
        x = np.linspace(0.0, 1.0, 101)
        lhs = iterate(compose(f, g), 3).value(x)
        rhs = compose(iterate(f, 3), iterate(g, 3)).value(x)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestReflect:
    def test_moebius_reflect_closed_form(self):
        # 1 - h_a(1 - x) = h_{1/a}(x) exactly
        x = np.linspace(0.0, 1.0, 101)
        r = Moebius(2.0).reflect()
        assert np.max(np.abs(r.value(x) - Moebius(0.5).value(x))) < 1e-15

    def test_reflect_involution(self):
        f = compose(Moebius(2.0), Moebius(1.5))
        x = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(f.reflect().reflect().value(x)
                             - f.value(x))) < 1e-14

    def test_reflect_tail_precision(self):
        # structural reflection keeps relative precision near the endpoint
        f = Moebius(2.0).inverse_map().reflect()
        y = 1e-14
        expected = Moebius(2.0).value(y)  # the reflected contraction rate
        assert f.value(y) == pytest.approx(y / 2.0, rel=1e-12)
        assert expected == pytest.approx(y / 2.0, rel=1e-10)


class TestMetric:
    def test_zero_on_equal(self):
        f = Moebius(2.0)
        for r in ("1", "1+bv", "1+ac", "2"):
            assert metric(f, f, r) == pytest.approx(0.0, abs=1e-12)

    def test_moebius_1bv_starred(self):
        # log Df monotone from -ln 2 to ln 2: var = 2 ln 2
        d = metric(Moebius(2.0), identity(), "1+bv", starred=True)
        assert d == pytest.approx(2.0 * math.log(2.0), abs=1e-6)

    def test_moebius_1bv_unstarred(self):
        # sup |x - x/(2-x)| = 3 - 2 sqrt(2) at x = 2 - sqrt(2)
        d = metric(Moebius(2.0), identity(), "1+bv", starred=False)
        assert d == pytest.approx(3.0 - 2.0 * math.sqrt(2.0)
                                  + 2.0 * math.log(2.0), abs=1e-6)

    def test_symmetry_and_triangle(self):
        rng = random.Random(7)
        maps = [Moebius(math.exp(rng.uniform(-1, 1))) for _ in range(6)]
        for r in ("1", "1+bv"):
            for f, g, h in [maps[:3], maps[3:]]:
                assert metric(f, g, r) == pytest.approx(metric(g, f, r),
                                                        abs=1e-9)
                assert metric(f, h, r) <= metric(f, g, r) + metric(g, h, r) \
                    + 1e-9

    def test_d1_below_d1bv(self):
        f, g = Moebius(2.0), Moebius(1.3)
        assert metric(f, g, "1") <= metric(f, g, "1+bv") + 1e-12

    def test_starred_sandwich(self):
        f, g = Moebius(2.5), Moebius(0.7)
        for r in ("1", "1+bv", "1+ac", "2"):
            ds, d = metric(f, g, r, starred=True), metric(f, g, r)
            assert ds - 1e-12 <= d <= 2.0 * ds + 1e-12

    def test_unsupported_selector(self):
        with pytest.raises(ValueError):
            metric(Moebius(2.0), identity(), "3")


class TestRotationNumber:
    def test_rigid_rotation(self):
        assert rotation_number(Rotation(0.375)).value == pytest.approx(
            0.375, abs=1e-12)

    def test_conjugated_golden(self):
        f = conjugated_rotation(GOLDEN)
        rn = rotation_number(f)
        assert rn.value == pytest.approx(GOLDEN, abs=1e-6)

    def test_fixed_point_gives_zero(self):
        # displacement vanishing at 0 pins the rotation number at 0
        x = np.linspace(0.0, 1.0, 4097)
        f = CircleGrid(GridFunction(0.1 * np.sin(2 * np.pi * x) ** 2))
        assert rotation_number(f).value == pytest.approx(0.0, abs=1e-9)

    def test_iterate_scaling(self):
        f = conjugated_rotation(GOLDEN)
        r1 = rotation_number(f)
        r2 = rotation_number(circle_compose(f, f))
        expect = (2.0 * r1.value) % 1.0
        tol = 1e-6 + 2 * r1.uncertainty + r2.uncertainty
        assert min(abs(r2.value - expect), 1 - abs(r2.value - expect)) < tol


class TestCommutatorResidual:
    def test_powers_commute(self):
        f = Moebius(2.0)
        t = ActionTuple(generators=(f, iterate(f, 2)))
        assert commutator_residual(t) < 1e-9

    def test_flow_times_commute(self):
        X = moebius_field(2.0)
        t = ActionTuple(generators=(FlowTime(X, 1.0),
                                    FlowTime(X, math.sqrt(2.0))))
        assert commutator_residual(t) < 1e-5

    def test_non_commuting_pair_detected(self):
        f = Moebius(2.0)
        g = BumpPerturbation(identity(), [Bump(0.5, 0.2, 0.1)])
        t = ActionTuple(generators=(f, g))
        assert commutator_residual(t) > 1e-3


class TestFixedPointAnalysis:
    def test_single_moebius(self):
        rep = fixed_point_analysis(ActionTuple(generators=(Moebius(2.0),)))
        locs = sorted(p.location for p in rep.points)
        assert locs == pytest.approx([0.0, 1.0], abs=1e-9)
        by_loc = {round(p.location): p for p in rep.points}
        assert by_loc[0].classification == "hyperbolic"
        assert by_loc[0].multipliers[0] == pytest.approx(-math.log(2.0),
                                                         abs=1e-9)
        assert by_loc[1].multipliers[0] == pytest.approx(math.log(2.0),
                                                         abs=1e-9)

    def test_identity_tuple(self):
        rep = fixed_point_analysis(ActionTuple(generators=(identity(),)))
        assert rep.global_fixed_intervals == ((0.0, 1.0),)
        assert rep.components == ()

    def test_parabolic_endpoint(self):
        X = AnalyticField("parabolic_right", 1.0)
        t = ActionTuple(generators=(FlowTime(X, 1.0), FlowTime(X, 0.5)))
        rep = fixed_point_analysis(t)
        by_loc = {round(p.location): p for p in rep.points}
        assert by_loc[1].classification in ("parabolic", "2-parabolic")
        assert by_loc[0].classification == "hyperbolic"


@settings(max_examples=40, deadline=None)
@given(st.floats(0.2, 5.0), st.floats(0.2, 5.0))
def test_moebius_group_isomorphism(a, b):
    """h_a o h_b = h_{ab} pointwise."""
    x = np.linspace(0.0, 1.0, 33)
    lhs = Moebius(a).value(Moebius(b).value(x))
    rhs = Moebius(a * b).value(x)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.floats(0.3, 3.0), st.integers(1, 5))
def test_iterate_is_power(a, n):
    x = np.linspace(0.0, 1.0, 33)
    assert np.max(np.abs(iterate(Moebius(a), n).value(x)
                         - Moebius(a ** n).value(x))) < 1e-10


# ---------------------------------------------------------------------------
# inverses: table reads and bisection


def _bisect80(fn, target, lo, hi):
    """The plain 80-step bisection the inverses are measured against."""
    lo = np.broadcast_to(np.asarray(lo, dtype=float), np.shape(target)).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), np.shape(target)).copy()
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = fn(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _check_inverse(f, n=513):
    y = np.linspace(0.0, 1.0, n)
    finv = InverseMap(f)
    assert np.max(np.abs(f.value(finv.value(y)) - y)) <= 1e-12
    assert np.max(np.abs(finv.value(f.value(y)) - y)) <= 1e-12
    assert np.max(np.abs(finv.value(y) - _bisect80(f.value, y, 0.0, 1.0))) <= 1e-13


_X = np.linspace(0.0, 1.0, 4097)
INVERSE_CASES = {
    "grid_log_deriv": lambda: GridLogDeriv(GridFunction(0.5 * np.sin(6.0 * _X))),
    "smooth_conjugacy": lambda: _SmoothConjugacy(
        _X, 0.5 * np.sin(6.0 * _X) + 0.3 * np.cos(13.0 * _X)),
    "bump_perturbation": lambda: BumpPerturbation(
        Moebius(2.0), [Bump(0.45, 0.2, 0.09), Bump(0.8, 0.05, 0.02)]),
    "composition_with_flow": lambda: Composition(
        [FlowTime(moebius_field(2.0), 0.7),
         BumpPerturbation(Moebius(0.5), [Bump(0.3, 0.1, 0.05)])]),
}


class TestInverses:
    @pytest.mark.parametrize("name", sorted(INVERSE_CASES))
    def test_round_trip_and_bisection(self, name):
        _check_inverse(INVERSE_CASES[name]())

    def test_reflected_grid_map(self):
        _check_inverse(INVERSE_CASES["grid_log_deriv"]().reflect())

    def test_circle_grid_lift(self):
        c = conjugated_rotation(0.0)
        h = c.maps[0]
        assert isinstance(h, CircleGrid)
        x = np.linspace(-3.3, 2.7, 1001)
        hinv = circle_inverse(h)
        assert np.max(np.abs(h.lift(hinv.lift(x)) - x)) <= 1e-12
        assert np.max(np.abs(hinv.lift(h.lift(x)) - x)) <= 1e-12
        c0 = float(h.lift(np.zeros(1))[0])
        ref = _bisect80(h.lift, x, x - c0 - 2.0, x - c0 + 2.0)
        assert np.max(np.abs(hinv.lift(x) - ref)) <= 1e-13

    def test_circle_solve_matches_table(self):
        h = conjugated_rotation(0.0).maps[0]
        x = np.linspace(-1.5, 1.5, 301)
        assert np.max(np.abs(CircleDiffeo.inverse_lift(h, x)
                             - h.inverse_lift(x))) <= 1e-13

    def test_circle_solve_reads_lift_at_zero_once(self):
        f = circle_compose(Rotation(0.1), conjugated_rotation(0.0).maps[0])
        calls = []
        lift = f.lift
        f.lift = lambda x: (calls.append(np.size(x)), lift(x))[1]
        finv = circle_inverse(f)
        x = np.linspace(-1.5, 1.5, 31)
        finv.lift(x)
        finv.lift(x)
        assert calls.count(1) == 1

    @pytest.mark.parametrize("target", [0.5, 0.25])
    def test_exact_root_stays_put(self, target):
        y = bisect_monotone(lambda v: v, np.array([target]), 0.0, 1.0)
        assert y[0] == target

    @pytest.mark.parametrize("target", [[0.0, 1e-9, 0.5], [0.001, 0.2, 0.9, 1.0]])
    def test_early_stop_matches_full_bisection(self, target):
        target = np.array(target)
        y = bisect_monotone(lambda v: v ** 3, target, 0.0, 1.0)
        assert np.array_equal(y, _bisect80(lambda v: v ** 3, target, 0.0, 1.0))

    def test_stops_once_no_midpoint_can_move(self):
        # roots away from 0 are resolved to a float spacing in ~55 steps
        calls = []

        def fn(v):
            calls.append(1)
            return v ** 3

        bisect_monotone(fn, np.array([0.001, 0.2, 0.9, 1.0]), 0.0, 1.0)
        assert len(calls) < 60

    def test_iteration_cap(self):
        y = bisect_monotone(lambda v: v, np.array([1.0 / 3.0]), 0.0, 1.0, iters=3)
        assert y[0] == 0.3125


@settings(max_examples=25, deadline=None)
@given(st.floats(-1.0, 1.0), st.integers(1, 12), st.floats(0.0, 6.0))
def test_grid_log_deriv_inverse(amp, freq, phase):
    g = amp * np.sin(2.0 * math.pi * freq * _X + phase)
    _check_inverse(GridLogDeriv(GridFunction(g)))


@settings(max_examples=25, deadline=None)
@given(st.floats(0.02, 0.3), st.floats(0.0, 1.0), st.floats(-0.2, 0.2),
       st.floats(0.3, 3.0))
def test_bump_perturbation_inverse(width, where, amplitude, a):
    center = width / 2 + 0.01 + where * (0.98 - width)
    _check_inverse(BumpPerturbation(Moebius(a), [Bump(center, width, amplitude)]))


class TestDomainCheck:
    @pytest.mark.parametrize("make", [
        lambda: Moebius(2.0),
        INVERSE_CASES["grid_log_deriv"],
        lambda: InverseMap(Moebius(2.0)),
        INVERSE_CASES["composition_with_flow"],
    ])
    def test_public_value_rejects_outside_points(self, make):
        with pytest.raises(DomainError):
            make().value(1.5)
        with pytest.raises(DomainError):
            make().value(np.array([0.2, -0.5]))

    def test_grid_function_rejects_outside_points(self):
        with pytest.raises(DomainError):
            GridFunction(_X)(1.5)

    def test_input_returned_uncopied(self):
        x = np.linspace(0.0, 1.0, 17)
        assert Moebius(2.0)._check_domain(x) is x

    def test_rounding_excursion_clipped(self):
        x = np.array([-1e-13, 0.5, 1.0 + 1e-13])
        y = Moebius(2.0)._check_domain(x)
        assert list(y) == [0.0, 0.5, 1.0]
        assert x[0] == -1e-13

    def test_nan_passes(self):
        y = Moebius(2.0)._check_domain(np.array([np.nan, 0.5]))
        assert np.isnan(y[0]) and y[1] == 0.5

    def test_nan_does_not_hide_outside_points(self):
        with pytest.raises(DomainError):
            Moebius(2.0).value(np.array([np.nan, -0.5]))

    def test_nodes_built_once(self):
        g = GridFunction(_X)
        assert g.nodes is g.nodes
        assert not g.nodes.flags.writeable
