"""Tests for interval/circle diffeomorphisms: group operations, metrics,
rotation numbers, commutators, and fixed-point analysis."""

import importlib.util
import itertools
import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from difflab import (
    ActionTuple,
    AnalyticField,
    DEFAULT_CONFIG,
    Bump,
    BumpDisplacement,
    BumpPerturbation,
    Composition,
    DomainError,
    FlowTime,
    GridFunction,
    GridMap,
    InverseMap,
    Moebius,
    MonotonicityError,
    Rotation,
    bisect_monotone,
    commutator_residual,
    compose,
    example_two_component_action,
    fixed_point_analysis,
    identity,
    inverse,
    iterate,
    metric,
    moebius_field,
    RotationNumber,
    rotation_number,
)
from difflab import cli, diffeo, szekeres
from difflab.deform import ComponentwiseDiffeo, _SmoothConjugacy
from difflab.diffeo import (
    ChartMap,
    Diffeo,
    _grid_backed,
    _jet_step,
    _lift_orbit,
    _walk_words,
)
from difflab.gridfn import MAX_ITER, unit_points
from difflab.invariants import asymptotic_variation, coboundary_drift
from difflab.szekeres import SzekeresField, szekeres_field

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def conjugated_rotation(alpha, amp=0.2, freq=1, N=4096):
    x = np.linspace(0.0, 1.0, N + 1)
    w = 2.0 * math.pi * freq
    h = GridMap(x + amp * np.sin(w * x) / w, np.log1p(amp * np.cos(w * x)),
                "circle")
    return compose(h, compose(Rotation(alpha), inverse(h)))


class TestEvaluate:
    def test_moebius_log_deriv_at_zero(self):
        assert Moebius(2.0).log_deriv(0.0) == pytest.approx(
            -math.log(2.0), abs=1e-14)

    def test_identity_affine_deriv(self):
        assert identity().affine_deriv(0.3) == 0.0

    def test_moebius_value(self):
        # x/(2-x) at 1/2
        assert Moebius(2.0).value(0.5) == pytest.approx(
            1.0 / 3.0, abs=1e-15)

    def test_domain_violation(self):
        with pytest.raises(ValueError):
            Moebius(2.0).value(1.5)


class TestGroupOps:
    def test_moebius_composition_law(self):
        h = compose(Moebius(2.0), Moebius(3.0))
        assert isinstance(h, Moebius) and h.a == 6.0
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

    @pytest.mark.parametrize("f", [
        Moebius(2.0),
        BumpPerturbation(Moebius(2.0), [Bump(0.4, 0.2, 0.05)]),
        Rotation(0.3),
    ], ids=["moebius", "bumped", "rotation"])
    def test_iterate_zero_is_the_identity_of_its_kind(self, f):
        h, ref = iterate(f, 0), identity(f.kind)
        assert type(h) is type(ref) and vars(h) == vars(ref)

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

    def test_rotation_power_is_a_rotation(self):
        r = iterate(Rotation(0.3), 3)
        assert isinstance(r, Rotation) and r.alpha == 0.3 * 3

    def test_moebius_power_beyond_the_floats_is_a_composition(self):
        # 20^256 overflows and 20^-256 underflows: no closed form, so the
        # power is the 256-fold product, and V_inf walks it
        for n in (256, -256):
            h = iterate(Moebius(20.0), n)
            assert isinstance(h, Composition) and len(h.maps) == 256
        ve = asymptotic_variation(Moebius(20.0))
        assert ve.limit == pytest.approx(2.0 * math.log(20.0), abs=1e-12)

    def test_commuting_iterate_distributes(self):
        f, g = Moebius(2.0), Moebius(3.0)
        x = np.linspace(0.0, 1.0, 101)
        lhs = iterate(compose(f, g), 3).value(x)
        rhs = compose(iterate(f, 3), iterate(g, 3)).value(x)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestMixedKinds:
    @pytest.mark.parametrize("f, g", [
        (Moebius(2.0), Rotation(0.1)),
        (Rotation(0.1), Moebius(2.0)),
        (Moebius(1.0), Rotation(0.1)),
    ])
    def test_interval_and_circle_do_not_compose(self, f, g):
        with pytest.raises(ValueError):
            compose(f, g)
        with pytest.raises(ValueError):
            Composition([f, g])


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

    def test_circle_d2_by_finite_differences(self):
        # d_2 reads a circle GridMap's affine derivative, its differenced
        # log-derivative table, whose peak is near 2 pi amp / sqrt(1 - amp^2)
        h = conjugated_rotation(0.0).maps[0]
        d = metric(h, Rotation(0.0), "2", starred=True)
        assert math.isfinite(d)
        assert d == pytest.approx(2.0 * math.pi * 0.2 / math.sqrt(0.96), rel=1e-3)
        assert metric(h, h, "2") == 0.0


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
        f = GridMap(x + 0.1 * np.sin(2 * np.pi * x) ** 2,
                    np.log1p(0.2 * np.pi * np.sin(4 * np.pi * x)), "circle")
        assert rotation_number(f).value == pytest.approx(0.0, abs=1e-9)

    def test_lift_orbit_is_iterated_np_interp(self):
        # the Python-float orbit equals the scalar np.interp steps it
        # replaces, bit for bit: on generic cells, on nodes (F(0) + k/4),
        # next to nodes from above and below, on negative lifts, and where
        # y = -1e-17 makes y - floor(y) round up to 1
        grid = np.linspace(0.0, 1.0, (1 << 10) + 1)
        tables = [conjugated_rotation(GOLDEN).value(grid),
                  grid + 0.25,
                  np.nextafter(grid + 0.25, 2.0),
                  np.nextafter(grid + 0.25, -1.0),
                  grid - 0.3 + 0.02 * np.sin(2 * np.pi * grid),
                  grid - 1e-17]
        K = 2000
        for table in map(np.asarray, tables):
            y, ref = 0.0, [0.0]
            for _ in range(K):
                m = math.floor(y)
                y = m + float(np.interp(y - m, grid, table))
                ref.append(y)
            orbit = _lift_orbit(table, K)
            ref = np.array(ref[:orbit.size])
            assert np.array_equal(orbit.view(np.int64), ref.view(np.int64))
            # only a stalled orbit ends early (the last table stalls at once)
            assert orbit.size == K + 1 or np.any(np.abs(np.diff(ref)) < 1e-14)

    def test_stalled_orbit_stops_after_one_block(self):
        # the identity lift stalls at the first step: the orbit ends with
        # its first block, where the whole loop took MAX_ITER steps; an
        # orbit that never stalls still takes them all
        grid = np.linspace(0.0, 1.0, (1 << 10) + 1)
        stalled = _lift_orbit(grid, MAX_ITER)
        assert stalled.size == 1024 + 1
        assert not np.any(stalled)
        assert _lift_orbit(grid + 0.375, MAX_ITER).size == MAX_ITER + 1

    @pytest.mark.parametrize("name, expected", [
        # the rotation numbers of the step-by-step scan this scoring
        # replaced, field for field
        ("stall_at_one", RotationNumber(0.0, 1e-14, True, 1, 0.0)),
        ("rigid", RotationNumber(0.375, 0.0, True, 65536, 0.0)),
        ("fixed_at_zero", RotationNumber(0.0, 1e-14, True, 1, 0.0)),
        ("stall_at_82", RotationNumber(0.0, 1e-14, True, 82,
                                       4.516711833634727e-05)),
        ("rot_default", RotationNumber(0.6180339886907622,
                                       2.6713974640998423e-10, True, 65536,
                                       1.0430416698126166e-06)),
    ])
    def test_rotation_number_pinned(self, name, expected):
        x = np.linspace(0.0, 1.0, 4097)
        f = {
            "stall_at_one": lambda: Rotation(0.0),
            "rigid": lambda: Rotation(0.375),
            "fixed_at_zero": lambda: GridMap(
                x + 0.1 * np.sin(2 * np.pi * x) ** 2,
                np.log1p(0.2 * np.pi * np.sin(4 * np.pi * x)), "circle"),
            # an attracting fixed point at 0.3, reached geometrically
            "stall_at_82": lambda: GridMap(
                x - 0.05 * np.sin(2 * np.pi * (x - 0.3)),
                np.log1p(-0.1 * np.pi * np.cos(2 * np.pi * (x - 0.3))), "circle"),
            "rot_default": lambda: cli._build_circle_map(
                cli._COMMANDS["rot"][1]["f"], "params.f", DEFAULT_CONFIG),
        }[name]()
        rn = rotation_number(f)
        assert rn == expected
        assert all(type(a) is type(b) for a, b in zip(vars(rn).values(),
                                                       vars(expected).values()))

    def test_iterate_scaling(self):
        f = conjugated_rotation(GOLDEN)
        r1 = rotation_number(f)
        r2 = rotation_number(compose(f, f))
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

    def test_sign_change_roots_match_brentq(self):
        # brentq is the reference the bracketed bisection replaced
        g = BumpPerturbation(Moebius(1.0001), [Bump(0.3, 0.1, 0.05),
                                               Bump(0.7, 0.1, -0.05)])
        x = np.linspace(0.0, 1.0, DEFAULT_CONFIG.grid_N + 1)
        sign = np.sign(g.value(x) - x)
        cells = np.flatnonzero(sign[:-1] * sign[1:] < 0)
        # one upward and one downward crossing
        assert sorted(sign[cells + 1]) == [-1.0, 1.0]
        ref = [brentq(lambda p: float(g.value(p) - p), x[i], x[i + 1], xtol=1e-14)
               for i in cells]
        locs = [p.location for p in fixed_point_analysis(ActionTuple((g,))).points]
        assert locs[0] == 0.0 and locs[-1] == 1.0
        assert np.max(np.abs(np.array(locs[1:-1]) - ref)) <= 1e-13

    def test_exact_zero_at_a_node(self):
        # f - id is exactly 0 at the node 1/2: found there, never bisected
        f = ComponentwiseDiffeo([(0.0, 0.5), (0.5, 1.0)],
                                [Moebius(2.0), Moebius(0.5)])
        rep = fixed_point_analysis(ActionTuple((f,)))
        assert [p.location for p in rep.points] == [0.0, 0.5, 1.0]
        assert rep.components == ((0.0, 0.5), (0.5, 1.0))


def _central_log_deriv_slope(f, x, h=1e-6):
    return (f.log_deriv(x + h) - f.log_deriv(x - h)) / (2.0 * h)


_BUMPED = BumpPerturbation(Moebius(2.0), [Bump(0.4, 0.2, 0.05)])


@pytest.mark.parametrize("f, tol", [
    (ChartMap(_BUMPED, 0.2, 0.8), 1e-6),
    (ChartMap(_BUMPED, 1.0, 0.0), 1e-6),
    (compose(_BUMPED, Moebius(3.0)), 1e-6),
    (_BUMPED, 1e-6),
    (Rotation(0.3), 1e-6),
    (_SmoothConjugacy(np.linspace(0.0, 1.0, 65), 0.3 * np.cos(np.pi * np.linspace(0.0, 1.0, 65))),
     1e-6),
    # node gradients read linearly against the slope of the linear
    # log_deriv in each cell: an O(1/N) gap
    (GridMap.from_log_deriv(
        0.3 * np.sin(2.0 * math.pi * np.linspace(0.0, 1.0, 4097))), 5e-3),
], ids=["chart", "reflection", "composition", "bump", "rotation", "smooth_conjugacy",
        "grid"])
def test_affine_deriv_is_slope_of_log_deriv(f, tol):
    x = np.linspace(0.05, 0.95, 181)
    assert np.max(np.abs(f.affine_deriv(x) - _central_log_deriv_slope(f, x))) <= tol


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


def test_moebius_keeps_the_end_one_for_large_a():
    # a (1 - x) + x is exactly 1 at x = 1, where a + (1 - a) x cancels to 0
    # for a = 2^64 (1 - a rounds to -a)
    g = iterate(Moebius(2.0), 64)
    assert g.jet(1.0) == (1.0, pytest.approx(64 * math.log(2.0), rel=1e-15))
    x = 1.0 - 1e-12
    exact = Fraction(x) / (Fraction(2**64) * (1 - Fraction(x)) + Fraction(x))
    assert abs(Fraction(float(g.value(x))) / exact - 1) <= 1e-15


def test_componentwise_iterate_is_the_n_fold_composition():
    # the fast path iterates each chart inside its interval
    f = ComponentwiseDiffeo([(0.1, 0.4), (0.5, 0.9)], [Moebius(2.0), _BUMPED])
    x = np.linspace(0.0, 1.0, 201)
    for n in (2, 5):
        fast = iterate(f, n)
        assert isinstance(fast, ComponentwiseDiffeo)
        (v, ld), (w, lw) = fast.jet(x), Composition([f] * n).jet(x)
        assert np.max(np.abs(v - w)) <= 1e-15
        assert np.max(np.abs(ld - lw)) <= 1e-13


def _b_on_all_points(bd, x, order):
    """BumpDisplacement._b with every profile evaluated on all of x."""
    out = [x, np.ones_like(x), np.zeros_like(x)][:order + 1]
    for b in bd.bumps:
        eta = diffeo._flat_bump(b._u(x), *diffeo._ETA, order)
        out[0] = out[0] + b.amplitude * b.width * eta[0]
        if order >= 1:
            out[1] = out[1] + b.amplitude * eta[1]
        if order == 2:
            out[2] = out[2] + b.amplitude * eta[2] / b.width
    return out


@pytest.mark.parametrize("bumps", [
    [Bump(0.45, 0.2, 0.08)],
    [Bump(0.3, 0.1, 0.05), Bump(0.7, 0.1, -0.05)],
    # the first bump's candidates (0.15, 0.55) cover the second's support
    [Bump(0.25, 0.2, -0.06), Bump(0.45, 0.1, 0.07)],
], ids=["one", "two", "two_adjacent"])
def test_bump_evaluates_only_its_supports(bumps, monkeypatch):
    bd = BumpDisplacement(bumps)
    ends = [e for b in bumps for e in (*b.support, b.support[1] + b.width)]
    special = [0.0, 1.0] + [np.nextafter(e, t) for e in ends for t in (0.0, e, 1.0)]
    x = np.sort(np.concatenate([np.linspace(0.0, 1.0, 200_000 - len(special)), special]))
    want = [_b_on_all_points(bd, x, order) for order in range(3)]
    seen = []
    real = diffeo._flat_bump
    monkeypatch.setattr(diffeo, "_flat_bump",
                        lambda u, *args: seen.append(u.size) or real(u, *args))
    near = [np.count_nonzero((x > b.support[0]) & (x < b.support[1] + b.width))
            for b in bumps]
    for order in range(3):
        seen.clear()
        got = bd._b(x, order)
        assert seen == near
        assert got[0] is not x
        for g, w in zip(got, want[order]):
            assert np.array_equal(g.view(np.int64), w.view(np.int64))


def test_composition_affine_deriv_reads_one_jet_per_factor(leaf_counter):
    tally = [0]
    maps = [leaf_counter(m, tally) for m in
            (Moebius(2.0), BumpDisplacement([Bump(0.4, 0.2, 0.05)]), Moebius(0.7))]
    Composition(maps).affine_deriv(np.linspace(0.0, 1.0, 33))
    assert tally[0] == len(maps)


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
    "grid_log_deriv": lambda: GridMap.from_log_deriv(0.5 * np.sin(6.0 * _X)),
    "smooth_conjugacy": lambda: _SmoothConjugacy(
        _X, 0.5 * np.sin(6.0 * _X) + 0.3 * np.cos(13.0 * _X)),
    "bump_perturbation": lambda: BumpPerturbation(
        Moebius(2.0), [Bump(0.45, 0.2, 0.09), Bump(0.8, 0.05, 0.02)]),
    "composition_with_flow": lambda: Composition(
        [FlowTime(moebius_field(2.0), 0.7),
         BumpPerturbation(Moebius(0.5), [Bump(0.3, 0.1, 0.05)])]),
}


class TestGridMap:
    _N = np.linspace(0.0, 1.0, 65)

    @pytest.mark.parametrize("values, logd, kind, error", [
        (0.5 * _N, 0.0 * _N, "interval", ValueError),   # does not reach 1
        (_N + 0.1, 0.0 * _N, "interval", ValueError),   # does not start at 0
        (_N + 1e-5 * _N, 0.0 * _N, "circle", ValueError),  # lift seam
        (_N, 1e-5 * _N, "circle", ValueError),          # log-derivative seam
        (_N, 0.0 * _N[:33], "interval", ValueError),    # two grids
        (_N, 0.0 * _N, "torus", ValueError),
        (np.minimum(2.0 * _N, 1.0), 0.0 * _N, "interval", MonotonicityError),
    ])
    def test_rejected_tables(self, values, logd, kind, error):
        with pytest.raises(error):
            GridMap(values, logd, kind)

    def test_circle_seam_made_exact(self):
        m = GridMap(self._N + 1e-9 * self._N + 0.25, 0.0 * self._N, "circle")
        assert m.values[-1] == m.values[0] + 1.0
        x = np.linspace(-2.0, 2.0, 41)
        assert np.max(np.abs(m.value(x + 1.0) - m.value(x) - 1.0)) <= 1e-15
        assert np.max(np.abs(m.inverse_value(m.value(x)) - x)) <= 1e-15

    def test_from_log_deriv_of_either_kind(self):
        psi = 0.3 * np.cos(2.0 * math.pi * self._N)
        f = GridMap.from_log_deriv(psi)
        c = GridMap.from_log_deriv(psi, "circle")
        # one table: the interval map and the lift agree on [0, 1]
        assert np.array_equal(f.values, c.values) and f.value(1.0) == 1.0
        assert float(np.trapezoid(np.exp(f.logd), self._N)) == pytest.approx(1.0, abs=1e-15)
        x = np.linspace(0.0, 1.0, 33)[:-1]
        assert np.array_equal(c.log_deriv(x + 3.0), f.log_deriv(x))
        # off the seam node 0, where only the circle table has two neighbours
        assert np.array_equal(c.affine_deriv(x[1:] - 1.0), f.affine_deriv(x[1:]))

    def test_circle_affine_deriv_is_periodic(self):
        # log Df = 0.3 cos(2 pi x) - c has derivative 0 at the seam; one-sided
        # differences there read -0.0925 at x = 0 and +0.0925 at x = 1
        c = GridMap.from_log_deriv(0.3 * np.cos(2.0 * math.pi * self._N), "circle")
        x = np.array([0.0, 0.3, 1.0 - 1e-9, 1.0])
        d = c.affine_deriv(x)
        assert np.max(np.abs(c.affine_deriv(x + 1.0) - d)) <= 1e-12
        assert np.max(np.abs(c.affine_deriv(x - 1.0) - d)) <= 1e-12
        assert np.max(np.abs(c.affine_deriv(np.array([0.0, 1.0])))) <= 1e-12

    def test_only_an_interval_map_reflects(self):
        _check_inverse(GridMap.from_log_deriv(0.2 * self._N).reflect())
        with pytest.raises(ValueError, match="interval map"):
            GridMap.from_log_deriv(0.0 * self._N, "circle").reflect()


class TestInverses:
    @pytest.mark.parametrize("name", sorted(INVERSE_CASES))
    def test_round_trip_and_bisection(self, name):
        _check_inverse(INVERSE_CASES[name]())

    def test_reflected_grid_map(self):
        _check_inverse(INVERSE_CASES["grid_log_deriv"]().reflect())

    @pytest.mark.parametrize("a, b", [(0.2, 0.7), (0.7, 0.2)])
    def test_chart_map(self, a, b):
        # f on its invariant interval [0.2, 0.7], read in a chart of either
        # orientation; the chart's inverse is f's own read through it
        f = ComponentwiseDiffeo([(0.2, 0.7)], [INVERSE_CASES["bump_perturbation"]()])
        _check_inverse(ChartMap(f, a, b))

    def test_circle_grid_lift(self):
        c = conjugated_rotation(0.0)
        h = c.maps[0]
        assert isinstance(h, GridMap) and h.kind == "circle"
        x = np.linspace(-3.3, 2.7, 1001)
        hinv = inverse(h)
        assert np.max(np.abs(h.value(hinv.value(x)) - x)) <= 1e-12
        assert np.max(np.abs(hinv.value(h.value(x)) - x)) <= 1e-12
        c0 = float(h.value(np.zeros(1))[0])
        ref = _bisect80(h.value, x, x - c0 - 2.0, x - c0 + 2.0)
        assert np.max(np.abs(hinv.value(x) - ref)) <= 1e-13

    def test_circle_solve_matches_table(self):
        h = conjugated_rotation(0.0).maps[0]
        x = np.linspace(-1.5, 1.5, 301)
        assert np.max(np.abs(Diffeo.inverse_value(h, x)
                             - h.inverse_value(x))) <= 1e-13

    def test_double_inverse_is_exact(self):
        # (f^-1)^-1 evaluates f itself, not a bisection through a bisection
        # (10.8 s for these 101 points when each level bisected)
        f = compose(Rotation(0.1), conjugated_rotation(0.0).maps[0])
        x = np.linspace(-1.5, 1.5, 101)
        finv = InverseMap(f)
        assert np.array_equal(InverseMap(finv).value(x), f.value(x))
        assert np.array_equal(InverseMap(InverseMap(finv)).value(x), finv.value(x))
        assert np.array_equal(InverseMap(InverseMap(InverseMap(finv))).value(x),
                              f.value(x))

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
    _check_inverse(GridMap.from_log_deriv(g))


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
        assert unit_points(x, 1e-12) is x

    def test_rounding_excursion_clipped(self):
        x = np.array([-1e-13, 0.5, 1.0 + 1e-13])
        y = unit_points(x, 1e-12)
        assert list(y) == [0.0, 0.5, 1.0]
        assert x[0] == -1e-13

    def test_nan_passes(self):
        y = unit_points(np.array([np.nan, 0.5]), 1e-12)
        assert np.isnan(y[0]) and y[1] == 0.5

    def test_nan_does_not_hide_outside_points(self):
        with pytest.raises(DomainError):
            Moebius(2.0).value(np.array([np.nan, -0.5]))

    def test_nodes_built_once(self):
        g = GridFunction(_X)
        assert g.nodes is g.nodes
        assert not g.nodes.flags.writeable


@pytest.mark.parametrize("make", [
    # built directly: compose would fold the Moebius factors into one map
    lambda: Composition([Moebius(2.0), Moebius(3.0), Moebius(0.7)]),
    lambda: example_two_component_action().generators[0],
], ids=["moebius_composition", "two_component_generator"])
@pytest.mark.parametrize("method", ["value", "jet", "affine_deriv"])
def test_public_call_checks_its_points_once(make, method, monkeypatch):
    # the factors are reached through their kernels, which check nothing
    f = make()
    calls = []
    real = diffeo.unit_points
    monkeypatch.setattr(diffeo, "unit_points",
                        lambda *args: calls.append(1) or real(*args))
    getattr(f, method)(np.linspace(0.0, 1.0, 17))
    assert len(calls) == 1


@pytest.mark.parametrize("run, most", [
    (lambda: SzekeresField(Moebius(2.0)), 3),
    (lambda: asymptotic_variation(Moebius(2.0)), 2),
    (lambda: coboundary_drift(example_two_component_action(), n=8), 3),
], ids=["szekeres_field", "asymptotic_variation", "coboundary_drift"])
def test_walks_step_through_kernels(run, most, monkeypatch):
    # orbit walks, series terms and bisections never re-check the points
    # they make; only the points that enter the library are checked
    calls = []
    real = diffeo.unit_points
    for module in (diffeo, szekeres):
        monkeypatch.setattr(module, "unit_points",
                            lambda *args: calls.append(1) or real(*args))
    run()
    assert len(calls) <= most


@pytest.mark.parametrize("x", [0.3, [0.3], [[0.2, 0.3], [0.4, 0.5]]])
def test_public_call_keeps_the_shape_of_x(x):
    f = Composition([Moebius(2.0), InverseMap(Moebius(3.0))])
    for out in (f.value(x), *f.jet(x), f.log_deriv(x), f.affine_deriv(x)):
        assert np.shape(out) == np.shape(x)
    assert type(f.value(0.3)) is np.float64


def test_tracer_wraps_the_public_entries():
    # perfbench/tracing.py reads InverseMap.value, CircleInverse.lift,
    # FlowTime.value and FlowTime.log_deriv from the class namespaces
    import difflab.cli  # noqa: F401  (the tracer wraps every module)

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with tracing.Tracer().installed() as tracer:
        InverseMap(Moebius(2.0)).value(0.3)
        FlowTime(moebius_field(2.0), 1.0).log_deriv(0.3)
    counters = tracer.counters()
    assert counters["diffeo.InverseMap.value.n"] == 1
    assert counters["szekeres.FlowTime.log_deriv.n"] == 1
    assert vars(InverseMap)["value"] is Diffeo.value


# ---------------------------------------------------------------------------
# one algebra for circle maps


_CX = np.linspace(0.0, 1.0, 257)
_CIRCLE_GRIDS = (
    GridMap(_CX + 0.05 * np.sin(2 * np.pi * _CX),
            np.log1p(0.1 * np.pi * np.cos(2 * np.pi * _CX)), "circle"),
    GridMap(_CX + 0.03 * np.sin(4 * np.pi * _CX) / (4 * np.pi),
            np.log1p(0.03 * np.cos(4 * np.pi * _CX)), "circle"),
)
_circle_leaf = st.one_of(st.floats(-1.0, 1.0).map(Rotation),
                         st.sampled_from(_CIRCLE_GRIDS))
_circle_expr = st.recursive(_circle_leaf, lambda sub: st.one_of(
    st.tuples(sub, sub).map(lambda p: compose(*p)),
    sub.map(inverse),
    sub.map(InverseMap),
    st.tuples(sub, st.integers(-2, 3)).map(lambda p: iterate(*p)),
), max_leaves=4)


def test_cancelled_circle_composition_keeps_its_kind():
    c = _CIRCLE_GRIDS[0]
    f = compose(c, InverseMap(c))
    x = np.linspace(-3.0, 3.0, 61)
    assert f.maps == () and f.kind == "circle"
    assert inverse(f).kind == "circle"
    assert np.array_equal(inverse(f).value(x), x)


class TestIdentity:
    """identity(kind) is the empty product of its kind, the unit that
    cancellation leaves of c o c^-1."""

    def test_circle_unit_drops_out_of_products(self):
        g = conjugated_rotation(0.3)
        e = identity("circle")
        assert compose(e, g) is g and compose(g, e) is g

    @pytest.mark.parametrize("c", [
        GridMap.from_log_deriv(0.3 * np.sin(2 * np.pi * _CX)),
        _CIRCLE_GRIDS[0],
    ], ids=["interval", "circle"])
    def test_identity_is_the_empty_product(self, c):
        assert diffeo._is_identity(identity(c.kind))
        assert diffeo._is_identity(compose(c, InverseMap(c)))
        assert not diffeo._is_identity(Moebius(2.0))

    def test_empty_circle_product_keeps_its_kind(self):
        e = identity("circle")
        assert inverse(e).kind == "circle" and e.reflect().kind == "circle"

    @pytest.mark.parametrize("kind, x", [
        ("interval", np.linspace(0.0, 1.0, 1001)),
        ("circle", np.linspace(0.0, 1.0, 1001)),
        ("circle", np.linspace(-3.0, 3.0, 1001)),
    ], ids=["interval", "circle", "circle-lift"])
    def test_identity_jet_is_exact(self, kind, x):
        y, ld = identity(kind).jet(x)
        assert y.tobytes() == x.tobytes()
        assert ld.tobytes() == np.zeros_like(x).tobytes()
        # a new array, as every map returns, never a view of the points
        assert not np.shares_memory(y, x)
        assert not np.shares_memory(identity(kind).value(x), x)


@settings(max_examples=40, deadline=None)
@given(_circle_expr)
def test_circle_expressions_are_lifts(f):
    x = np.linspace(-3.0, 3.0, 601)
    finv = inverse(f)
    assert f.kind == "circle" and finv.kind == "circle"
    assert np.max(np.abs(f.value(x + 1.0) - f.value(x) - 1.0)) <= 1e-12
    assert np.max(np.abs(finv.value(f.value(x)) - x)) <= 1e-12
    assert np.max(np.abs(f.value(finv.value(x)) - x)) <= 1e-12


def _grid_backed_cases():
    x = _CX
    g = GridMap.from_log_deriv(0.05 * np.sin(2 * np.pi * x))
    c = _CIRCLE_GRIDS[0]
    bumps = [Bump(0.45, 0.2, 0.08)]
    flow = FlowTime(moebius_field(2.0), 0.3)
    X = szekeres_field(Composition([Moebius(2.0), g]))
    return {
        "grid_log_deriv": (g, True),
        "circle_grid": (c, True),
        "composition": (Composition([Moebius(2.0), g]), True),
        "inverse": (InverseMap(g), True),
        "iterate": (iterate(g, 2), True),
        "reflected": (g.reflect(), True),
        "circle_composition": (compose(Rotation(0.3), c), True),
        "circle_inverse": (inverse(c), True),
        "circle_iterate": (iterate(c, 3), True),
        "bump_on_grid": (BumpPerturbation(g, bumps), True),
        "bump_on_moebius": (BumpPerturbation(Moebius(2.0), bumps), False),
        "restricted": (ChartMap(g, 0.0, 0.5), True),
        "componentwise": (ComponentwiseDiffeo([(0.0, 0.5)], [g]), True),
        "componentwise_flow": (ComponentwiseDiffeo([(0.0, 0.5)], [flow]), False),
        "flow_of_grid_field": (FlowTime(X, 0.5), False),
        "smooth_conjugacy": (_SmoothConjugacy(x, 0.1 * np.cos(np.pi * x)), False),
        "moebius": (Moebius(2.0), False),
        "rotation": (Rotation(0.3), False),
        "composition_of_flows": (Composition([Moebius(2.0), flow]), False),
    }


def test_grid_backed_walk():
    # the values of the is_grid_backed flag this walk replaced, which picked
    # the fixed-point threshold: 1e-4 for grid tables, 1e-8 otherwise
    for name, (f, expected) in _grid_backed_cases().items():
        assert _grid_backed(f) is expected, name


# ---------------------------------------------------------------------------
# word walks


def _listed_words(gens, n, x):
    """The box of words listed generator by generator, each word extended
    by n - 1 jets of the next generator: the enumeration the walk
    replaced."""
    words = [(x, np.zeros_like(x))]
    for g in gens:
        extended = []
        for y, ld in words:
            for k in range(n):
                extended.append((y, ld))
                if k < n - 1:
                    y, ld_g = g.jet(y)
                    ld = ld + ld_g
        words = extended
    return words


_WALK_GENS = (
    BumpPerturbation(Moebius(2.0), [Bump(0.4, 0.2, 0.1)]),
    Moebius(0.6),
    GridMap.from_log_deriv(0.3 * np.sin(2 * np.pi * np.linspace(0.0, 1.0, 65))),
)


def _counted_steps(gens):
    """Jet steps on states (w(x), log Dw(x), k_1, ..., k_d) that also count
    the exponents, one integer array per generator, so that every walked
    state names its word."""

    def count(i, g):
        jet = _jet_step(g)

        def step(state):
            y, ld, *ks = state
            ks[i] = ks[i] + 1
            return (*jet((y, ld)), *ks)

        return step

    return [count(i, g) for i, g in enumerate(gens)]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_walk_matches_listed_words(d, monkeypatch):
    # the maps do not commute, so the bits also pin the order g_1 first;
    # batches of 1, 2 and 3 rows (a partial last batch) and of all rows
    # give the same states
    x = np.linspace(0.0, 1.0, 33)
    gens = _WALK_GENS[:d]
    listed = _listed_words(gens, 4, x)
    ks = [np.zeros(x.size, dtype=int)] * d
    for rows_per_batch in (1, 2, 3, 4 ** (d - 1)):
        monkeypatch.setattr(diffeo, "_WALK_POINTS", rows_per_batch * x.size)
        walked = {}
        for y, ld, *k in _walk_words(_counted_steps(gens), 4, (x, np.zeros_like(x), *ks)):
            assert all(np.all(ki == ki[0]) for ki in k)
            walked[tuple(int(ki[0]) for ki in k)] = (y, ld)
        assert len(walked) == len(listed) == 4 ** d
        for key, (y_ref, ld_ref) in zip(itertools.product(range(4), repeat=d), listed):
            y, ld = walked[key]
            assert np.array_equal(y, y_ref) and np.array_equal(ld, ld_ref)


def test_walk_of_one_row_walks_the_state_itself():
    # d = 1: the empty word's state is the very state passed in, not a copy
    x = np.linspace(0.0, 1.0, 9)
    state = (x, np.zeros_like(x))
    assert next(_walk_words([_jet_step(_WALK_GENS[0])], 4, state)) is state


def test_walk_takes_n_minus_one_jets_per_row(leaf_counter, monkeypatch):
    x = np.linspace(0.0, 1.0, 9)
    # n - 1 = 4 steps per row at levels 1 and 2 (n^0 and n^1 rows), and 4
    # per batch of the n^2 = 25 rows of the last generator
    for rows_per_batch, batches in [(1, 25), (2, 13), (25, 1)]:
        monkeypatch.setattr(diffeo, "_WALK_POINTS", rows_per_batch * x.size)
        gens = [leaf_counter(g) for g in _WALK_GENS]
        for _ in _walk_words([_jet_step(g) for g in gens], 5, (x, np.zeros_like(x))):
            pass
        assert [g.calls for g in gens] == [4, 5 * 4, batches * 4]


def test_walk_checks_the_budget_before_any_step():
    def step(state):
        raise AssertionError("stepped")

    with pytest.raises(ValueError, match="word budget"):
        _walk_words([step, step], 1001, None)
    assert len(list(_walk_words([step, step], 1, None))) == 1
