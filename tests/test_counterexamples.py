"""Tests for the exact pathological constructions: the Cantor staircase family
with its derivative-variation audit, the piecewise-linear circle map without a
regular square root, and the brick-flow half-time pathology."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from difflab import (
    build_staircase,
    bv_group_demo,
    hyperbolic_example,
    sergeraert_check,
    staircase_phi,
    staircase_report,
)
from difflab import bisect_monotone, counterexamples
from difflab.counterexamples import (
    ConstructionError,
    _DELTA,
    _audit_tree,
    _piece_preimages,
    _psi_from_profile,
    _triangle_profile,
)
from difflab.diffeo import _flat_bump
from difflab.gridfn import variation


@pytest.fixture(scope="module")
def tree():
    return build_staircase(8)


class TestCantorTree:
    def test_depth_one_plateau_values(self):
        t1 = build_staircase(1)
        assert t1.u[()] == Fraction(1, 2)
        assert t1.u[(0,)] == Fraction(1, 4)
        assert t1.u[(1,)] == Fraction(3, 4)

    def test_intervals_ordered_and_disjoint(self, tree):
        items = tree.sorted_intervals()
        assert len(items) == 2 ** (tree.depth + 1) - 1
        for (a1, b1, _), (a2, b2, _) in zip(items, items[1:]):
            assert b1 < a2

    def test_u_monotone_in_position(self, tree):
        items = tree.sorted_intervals()
        us = [tree.u[w] for (_, _, w) in items]
        assert all(a < b for a, b in zip(us, us[1:]))

    def test_exact_audit_passes(self, tree):
        _audit_tree(tree)  # must not raise

    def test_audit_detects_tampering(self, tree):
        t = build_staircase(3)
        w = (0, 1)
        t.u[w] = t.u[w] + Fraction(1, 1000)
        with pytest.raises(ConstructionError):
            _audit_tree(t)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            build_staircase(0)
        with pytest.raises(ValueError):
            build_staircase(4, Fraction(1))


class TestStaircaseReport:
    def test_exact_quarter_lower_bound(self, tree):
        for n in (1, 2, 3, 4):
            rep = staircase_report(tree, n)
            assert rep.var_lower_bound == Fraction(1, 4)
            assert rep.holds

    def test_family_sup_bound(self, tree):
        for n in (2, 3, 4):
            rep = staircase_report(tree, n)
            assert rep.sup_deriv_dist <= rep.sup_bound

    def test_sup_distance_decreases(self, tree):
        sups = [staircase_report(tree, n).sup_deriv_dist for n in (1, 2, 3, 4)]
        assert all(a > b for a, b in zip(sups, sups[1:]))

    def test_derivative_variation_geometric_decay(self, tree):
        for n in (1, 2, 3, 4):
            rep = staircase_report(tree, n)
            assert rep.var_deriv <= rep.M_prime * (2.0 / 3.0) ** n + 1e-12

    def test_piece_count(self, tree):
        assert staircase_report(tree, 3).piece_count == 8

    def test_depth_guard(self, tree):
        with pytest.raises(ValueError):
            staircase_report(tree, 0)
        with pytest.raises(ValueError):
            staircase_report(tree, tree.depth)


class TestBvGroupDemo:
    def test_conjugator_goes_to_identity_in_d1(self, tree):
        d2 = bv_group_demo(tree, 2).d1_phi
        d5 = bv_group_demo(tree, 5).d1_phi
        assert d5 < d2 / 10.0

    def test_bv_distance_stays_bounded_away(self, tree):
        for n in (2, 5):
            rep = bv_group_demo(tree, n)
            assert rep.d1pbv_left >= 0.2

    def test_bad_n(self, tree):
        with pytest.raises(ValueError):
            bv_group_demo(tree, 0)


class TestHyperbolicExample:
    def test_exact_annulus_variation(self):
        rep = hyperbolic_example(50)
        for k in (1, 2, 3, 10):
            assert rep.annulus_var_g[k - 1] == Fraction(1, k * k)

    def test_root_partial_sum_dominates_harmonic(self):
        rep = hyperbolic_example(1000)
        assert float(rep.partial_sum_root) >= 0.9 * float(rep.harmonic_N)

    def test_basel_tail_consistency(self):
        rep = hyperbolic_example(1000)
        total = float(rep.partial_sum_g) + rep.basel_tail
        assert total == pytest.approx(math.pi ** 2 / 6.0, abs=1e-3)

    def test_residuals_tiny(self):
        rep = hyperbolic_example(200)
        assert rep.endpoint_residual < 1e-12
        assert rep.annulus_map_residual < 1e-12
        assert rep.sampled_var_gap < 1e-2

    def test_bad_n(self):
        with pytest.raises(ValueError):
            hyperbolic_example(0)
        # the sums are exact Fractions only; there is no float fallback
        with pytest.raises(ValueError):
            hyperbolic_example(2001)

    def test_psi_matches_quadrature_inside_each_support(self):
        # psi_k integrates e^g exactly per linear piece; against a fine
        # trapezoid rule at interior points, where psi_k is not the identity
        for k in range(1, 9):
            nodes, vals = _triangle_profile(k)
            psi, _ = _psi_from_profile(nodes, vals)
            u = np.linspace(nodes[0], nodes[-1], 200_001)
            eg = np.exp(np.interp(u, nodes, vals))
            cum = nodes[0] + np.concatenate(
                ([0.0], np.cumsum(0.5 * (eg[1:] + eg[:-1]) * np.diff(u))))
            x = np.linspace(nodes[0], nodes[-1], 259)[1:-1]
            got = np.array([psi(v) for v in x])
            assert np.max(np.abs(got - np.interp(x, u, cum))) <= 1e-12

    def test_unbalanced_bump_is_refused(self, monkeypatch):
        # halving the down-triangle leaves psi_1 off the end of its support
        # by 3.5e-3; the annulus audit looks inside every support
        def unbalanced(k):
            nodes, vals = _triangle_profile(k)
            vals = vals.copy()
            vals[3] /= 2.0
            return nodes, vals

        monkeypatch.setattr(counterexamples, "_triangle_profile", unbalanced)
        with pytest.raises(ConstructionError, match="end of its support"):
            hyperbolic_example(8)


class TestSergeraert:
    def test_half_map_squares_to_full_map(self):
        for k in (3, 4):
            rep = sergeraert_check(k)
            assert rep.half_map_residual <= 1e-12
            assert rep.orbit_residual <= 1e-12

    def test_variation_ratio_stable_in_k(self):
        r3 = sergeraert_check(3).ratio_unit_scale
        r4 = sergeraert_check(4).ratio_unit_scale
        assert abs(r3 - r4) <= 0.05 * max(r3, r4)

    def test_variation_count_grows(self):
        l3 = sergeraert_check(3).log2_total
        l4 = sergeraert_check(4).log2_total
        assert l4 > l3

    def test_variation_identity(self):
        rep = sergeraert_check(3)
        assert rep.var_identity_gap <= 1e-6 * max(rep.var_measured, 1e-300)

    def test_field_junction_smoothness(self):
        rep = sergeraert_check(3)
        assert rep.junction_jump_d1 < 1e-5
        assert rep.junction_jump_d2 < 0.1

    def test_bad_k(self):
        with pytest.raises(ValueError):
            sergeraert_check(2)

    def test_chunked_grid_sums_match_full_grid(self):
        # the 2^20-interval variation and L^1 quadrature run in chunks; they
        # must give the full-grid sums without building full-grid arrays
        import tracemalloc

        tracemalloc.start()
        try:
            rep = sergeraert_check(3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20  # one full-grid float array is 8 MiB
        t = 2.0 ** (9 - 27)
        ug = np.linspace(0.5, 1.0, 2 ** 20 + 1)
        _, d1, d2 = _flat_bump(ug, *_DELTA, 2)
        var_full = variation(np.log1p(t * d1))
        c_full = float(np.trapezoid(np.abs(d2), ug))
        assert rep.var_measured == pytest.approx(var_full, rel=1e-13, abs=0.0)
        assert rep.c_l1_half == pytest.approx(c_full, rel=1e-13, abs=0.0)

    def test_sign_change_roots_match_brentq(self, monkeypatch):
        # brentq is the reference the bracketed bisection replaced; the
        # root call is the one with target 0 (the orbit check inverts _phi_local)
        calls = []

        def recording(fn, target, lo, hi, iters=80):
            y = bisect_monotone(fn, target, lo, hi, iters)
            calls.append((np.asarray(target), lo, hi, y))
            return y

        monkeypatch.setattr(counterexamples, "bisect_monotone", recording)
        sergeraert_check(3)
        (lo, hi, roots), = [c[1:] for c in calls if not np.any(c[0])]
        d2 = lambda x: float(_flat_bump(np.array([x]), *_DELTA, 2)[2][0])
        # both crossing directions
        assert {np.sign(d2(a)) for a in lo} == {-1.0, 1.0}
        ref = [brentq(d2, a, b, xtol=1e-14) for a, b in zip(lo, hi)]
        assert np.max(np.abs(roots - ref)) <= 1e-13


class TestFloatKernels:
    def test_piece_preimages_equal_bisection_on_piece_values(self, tree):
        # the bisection with the piece's own (Fraction-constant) value
        for p in staircase_phi(tree, 3):
            a, b = float(p.a), float(p.b)
            # targets that are piece values at floats: near the root the
            # comparisons turn on the last bits of the value
            targets = [float(p.value(x)) for x in np.linspace(a, b, 41)[1:-1].tolist()]
            old = []
            for t in targets:
                lo_x, hi_x = a, b
                for _ in range(80):
                    mid = 0.5 * (lo_x + hi_x)
                    if float(p.value(mid)) < t:
                        lo_x = mid
                    else:
                        hi_x = mid
                old.append(0.5 * (lo_x + hi_x))
            assert _piece_preimages(p, targets) == old
