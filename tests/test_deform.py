"""Tests for deformation machinery: averaging toward rotations, geometric-mean
conjugation, interpolation between conjugate actions, flow regularization,
log-linear paths, action classification, and finite-order normal forms."""

import math

import numpy as np
import pytest

from difflab import (
    ActionTuple,
    CircleGrid,
    DeformationPath,
    FlowTime,
    GridFunction,
    Moebius,
    Rotation,
    circle_compose,
    circle_inverse,
    classify_action,
    compose,
    deform_action,
    example_two_component_action,
    finite_order_structure,
    geometric_mean_conjugacy,
    herman_average,
    identity,
    interpolation_path,
    inverse,
    iterate,
    log_linear_deform,
    metric,
    moebius_field,
    normalize_finite_order,
    regularize_flow,
)

LN2 = math.log(2.0)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def conjugated_rotation(alpha, amp=0.2, freq=1, N=4096):
    x = np.linspace(0.0, 1.0, N + 1)
    w = 2.0 * math.pi * freq
    h = CircleGrid(GridFunction(amp * np.sin(w * x) / w),
                   GridFunction(np.log1p(amp * np.cos(w * x))))
    return circle_compose(h, circle_compose(Rotation(alpha),
                                            circle_inverse(h)))


class TestHermanAverage:
    def test_rigid_rotation_already_averaged(self):
        t = ActionTuple(generators=(Rotation(0.3),))
        rep = herman_average(t, 4)
        assert rep.rotation_distances[0] < 1e-12

    def test_distance_decreases_with_depth(self):
        t = ActionTuple(generators=(conjugated_rotation(GOLDEN),))
        d = [herman_average(t, n).rotation_distances[0] for n in (1, 4, 16)]
        assert d[0] > d[1] > d[2]

    def test_rotation_number_preserved(self):
        t = ActionTuple(generators=(conjugated_rotation(GOLDEN),))
        rep = herman_average(t, 8)
        assert rep.rotation_numbers[0] == pytest.approx(GOLDEN, abs=1e-5)

    def test_invalid_depth(self):
        t = ActionTuple(generators=(Rotation(0.3),))
        with pytest.raises(ValueError):
            herman_average(t, 0)

    def test_interval_tuple_rejected(self):
        with pytest.raises(ValueError):
            herman_average(ActionTuple(generators=(Moebius(2.0),)), 4)


class TestGeometricMeanConjugacy:
    def test_identity_tuple(self):
        rep = geometric_mean_conjugacy(ActionTuple(generators=(identity(),)),
                                       n=4)
        assert rep.vars_conjugate[0] == pytest.approx(0.0, abs=1e-9)

    def test_moebius_variation_bound(self):
        # the conjugated generator keeps var(log D .) <= var(log Df) = 2 ln 2
        rep = geometric_mean_conjugacy(ActionTuple(generators=(Moebius(2.0),)),
                                       n=16)
        assert rep.vars_conjugate[0] <= 2.0 * LN2 + 1e-6
        assert all(s >= -1e-9 for s in rep.slacks)

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            geometric_mean_conjugacy(ActionTuple(generators=(Moebius(2.0),)),
                                     n=0)


class TestInterpolationPath:
    def setup_method(self):
        self.phi = Moebius(1.5)
        self.f = Moebius(2.0)
        self.rho0 = ActionTuple(generators=(self.f,))
        conj = compose(compose(self.phi, self.f), inverse(self.phi))
        self.rho1 = ActionTuple(generators=(conj,))

    def test_endpoints(self):
        s0 = interpolation_path(self.rho0, self.rho1, self.phi, 0.0)
        s1 = interpolation_path(self.rho0, self.rho1, self.phi, 1.0)
        assert metric(s0.action.generators[0], self.rho0.generators[0],
                      "1+ac", starred=True) < 1e-9
        assert metric(s1.action.generators[0], self.rho1.generators[0],
                      "1+ac", starred=True) < 1e-9

    def test_midpoint_certificate(self):
        s = interpolation_path(self.rho0, self.rho1, self.phi, 0.5)
        cert = s.certificate
        assert cert["holds"]
        assert cert["d_star_t"] <= max(cert["d_star_endpoints"]) + 1e-4

    def test_non_conjugacy_rejected(self):
        with pytest.raises(ValueError):
            interpolation_path(self.rho0,
                               ActionTuple(generators=(Moebius(3.0),)),
                               self.phi, 0.5)

    def test_bad_t(self):
        with pytest.raises(ValueError):
            interpolation_path(self.rho0, self.rho1, self.phi, 1.5)


class TestRegularizeFlow:
    def test_moebius_field(self):
        rep = regularize_flow(moebius_field(2.0))
        assert rep.checks["deriv_identity_ok"]
        assert rep.checks["var_DX"] == pytest.approx(2.0 * LN2, rel=1e-4)
        # the regularized field still has multiplier -ln 2 at the origin
        assert float(rep.field.DX(np.array(0.0))) == pytest.approx(-LN2,
                                                                   abs=1e-6)

    def test_commuting_extra_map(self):
        extra = FlowTime(moebius_field(2.0), 0.5)
        rep = regularize_flow(moebius_field(2.0), extra=extra)
        assert rep.extra_checks["ok"]
        assert rep.extra_checks["var_conjugate"] == pytest.approx(
            rep.extra_checks["var_original"], abs=1e-5)

    def test_bad_regularity_selector(self):
        with pytest.raises(ValueError):
            regularize_flow(moebius_field(2.0), r="5")

    def test_flowable_chart_of_example_action(self):
        # the Szekeres field of the chart is read from a C^1 table; a
        # piecewise-linear one left an identity error near 1e-5
        decomp = classify_action(example_two_component_action())
        comp = next(c for c in decomp.components if c.tag == "flowable")
        rep = regularize_flow(comp.field)
        assert rep.checks["deriv_identity_max_err"] <= 1e-6


class TestLogLinearDeform:
    def test_endpoints(self):
        f = Moebius(2.0)
        assert log_linear_deform(f, 0.0) is f
        x = np.linspace(0.0, 1.0, 101)
        g1 = log_linear_deform(f, 1.0)
        assert np.max(np.abs(g1.value(x) - x)) == 0.0

    def test_variation_scales_linearly(self):
        g = log_linear_deform(Moebius(2.0), 0.5)
        x = np.linspace(0.0, 1.0, 4097)
        var = float(np.abs(np.diff(g.log_deriv(x))).sum())
        assert var == pytest.approx(LN2, abs=1e-6)

    def test_bad_t(self):
        with pytest.raises(ValueError):
            log_linear_deform(Moebius(2.0), -0.1)


class TestClassifyAction:
    def test_cyclic_powers(self):
        f = Moebius(2.0)
        dec = classify_action(ActionTuple(generators=(f, iterate(f, 2))))
        (comp,) = dec.components
        assert comp.tag == "cyclic"
        assert comp.exponents == (1, 2)

    def test_flowable_incommensurate_times(self):
        X = moebius_field(2.0)
        t = ActionTuple(generators=(FlowTime(X, 1.0),
                                    FlowTime(X, math.sqrt(2.0))))
        dec = classify_action(t)
        (comp,) = dec.components
        assert comp.tag == "flowable"
        assert comp.times[0] == pytest.approx(1.0, abs=1e-6)
        assert comp.times[1] == pytest.approx(math.sqrt(2.0), abs=1e-6)

    def test_identity_action_is_all_fixed(self):
        dec = classify_action(ActionTuple(generators=(identity(), identity())))
        assert dec.components == ()
        assert dec.fixed_report.global_fixed_intervals == ((0.0, 1.0),)

    def test_non_commuting_rejected(self):
        from difflab import Bump, BumpPerturbation
        t = ActionTuple(generators=(Moebius(2.0),
                                    BumpPerturbation(identity(),
                                                     [Bump(0.5, 0.2, 0.1)])))
        with pytest.raises(ValueError):
            classify_action(t)


class TestDeformAction:
    def test_endpoints_and_certificate(self):
        act = example_two_component_action()
        a0, c0 = deform_action(act, 0.0)
        a1, _ = deform_action(act, 1.0)
        xs = np.linspace(0.0, 1.0, 201)
        for i in range(len(act.generators)):
            assert np.max(np.abs(a0.generators[i].value(xs)
                                 - act.generators[i].value(xs))) < 1e-9
            assert np.max(np.abs(a1.generators[i].value(xs) - xs)) < 1e-9
        assert c0["holds"]
        assert c0["crashed_components"] == 0

    def test_path_rejects_bad_t(self):
        path = DeformationPath(ActionTuple(generators=(Moebius(2.0),)))
        with pytest.raises(ValueError):
            path.at(1.5)


class TestFiniteOrderNormalForm:
    def test_rigid_half_rotation(self):
        rep = normalize_finite_order(Rotation(0.5), 2)
        assert rep.conjugation_residual < 1e-9
        assert all(m < 1e-9 for m in rep.junction_mismatches)

    def test_conjugated_half_rotation(self):
        # conjugate by a map fixing 0 and 1/2 with equal derivatives there,
        # so the orbit and parabolicity preconditions are met
        x = np.linspace(0.0, 1.0, 4097)
        w = 4.0 * math.pi
        h = CircleGrid(GridFunction(0.2 * np.sin(w * x) / w),
                       GridFunction(np.log1p(0.2 * np.cos(w * x))))
        g = circle_compose(h, circle_compose(Rotation(0.5),
                                             circle_inverse(h)))
        rep = normalize_finite_order(g, 2)
        assert rep.conjugation_residual < 1e-6
        # the conjugacy really sends g to the half rotation off the last cell
        probe = np.linspace(0.0, 0.5, 257)
        phi = rep.conjugacy
        err = np.abs(g.lift(phi.lift(probe)) - phi.lift(probe + 0.5))
        assert np.max(err) < 1e-6

    def test_wrong_orbit_rejected(self):
        with pytest.raises(ValueError):
            normalize_finite_order(Rotation(0.3), 2)

    def test_structure_report(self):
        assert finite_order_structure(2, 3) == {"gcd": 1, "order": 3,
                                                "generator": 2}
        assert finite_order_structure(4, 6)["order"] == 3
        assert finite_order_structure(0, 5)["order"] == 1
        with pytest.raises(ValueError):
            finite_order_structure(1, 0)
