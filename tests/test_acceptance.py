"""End-to-end acceptance suite: each test pins one headline guarantee of the
package against a closed-form oracle or an exact construction, and asserts the
stated wall-clock budget."""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from difflab import (
    ActionTuple,
    AnalyticField,
    Bump,
    BumpPerturbation,
    Composition,
    DeformationPath,
    FlowTime,
    GridMap,
    Moebius,
    Rotation,
    build_staircase,
    bv_group_demo,
    compose,
    coboundary_drift,
    example_two_component_action,
    flow_group_residual,
    geometric_mean_conjugacy,
    herman_average,
    hyperbolic_example,
    identity,
    interpolation_path,
    inverse,
    iterate,
    mather_inequality_check,
    mather_invariant,
    metric,
    moebius_field,
    regularize_flow,
    sergeraert_check,
    staircase_report,
    szekeres_field,
    asymptotic_variation,
)

LN2 = math.log(2.0)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class _Budget:
    """Context manager asserting a wall-clock budget (seconds)."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.seconds, \
                f"budget {self.seconds}s exceeded: {elapsed:.1f}s"
        return False


def conjugated_rotation(alpha, amp=0.2, N=4096):
    x = np.linspace(0.0, 1.0, N + 1)
    w = 2.0 * math.pi
    h = GridMap(x + amp * np.sin(w * x) / w, np.log1p(amp * np.cos(w * x)),
                "circle")
    return compose(h, compose(Rotation(alpha), inverse(h)))


def test_01_generating_field_oracle():
    with _Budget(2.0):
        X = szekeres_field(Moebius(2.0))
        xs = np.linspace(0.05, 0.95, 361)
        target = -LN2 * xs * (1.0 - xs)
        assert float(np.max(np.abs(X.X(xs) - target))) < 1e-6


def test_02_flow_group_law():
    with _Budget(2.0):
        rng = np.random.default_rng(42)
        X = moebius_field(2.0)
        for _ in range(20):
            s, t = rng.uniform(-2.0, 2.0, size=2)
            assert flow_group_residual(X, float(s), float(t)) <= 1e-6


def test_03_regularization_identity():
    with _Budget(5.0):
        for field in (moebius_field(2.0),
                      AnalyticField("parabolic_right", 0.8)):
            rep = regularize_flow(field)
            chk = rep.checks
            # var(DX~) = var(log Df) within 1e-3 relative
            denom = max(chk["var_logDf"], 1e-12)
            assert abs(chk["var_DX"] - chk["var_logDf"]) <= 1e-3 * denom
            # DX~ = log Df o phi^-1 within 1e-5 pointwise
            assert chk["deriv_identity_max_err"] <= 1e-5


def test_04_interpolation_bound():
    with _Budget(5.0):
        phi = Moebius(1.5)
        f = Moebius(2.0)
        rho0 = ActionTuple(generators=(f,))
        rho1 = ActionTuple(generators=(compose(compose(phi, f),
                                               inverse(phi)),))
        for t in (0.0, 1.0):
            step = interpolation_path(rho0, rho1, phi, t)
            target = (rho0 if t == 0.0 else rho1).generators[0]
            assert metric(step.action.generators[0], target, "1+ac",
                          starred=True) <= 1e-6
        for i in range(1, 10):
            step = interpolation_path(rho0, rho1, phi, 0.1 * i)
            cert = step.certificate
            assert cert["d_star_t"] <= max(cert["d_star_endpoints"]) + 1e-4


def test_05_asymptotic_variation_calibration():
    with _Budget(3.0):
        ve = asymptotic_variation(Moebius(2.0))
        assert ve.limit == pytest.approx(2.0 * LN2, abs=1e-6)
        ve2 = asymptotic_variation(Moebius(4.0))
        combined = ve.uncertainty * 2.0 + ve2.uncertainty + 1e-9
        assert abs(ve2.limit - 2.0 * ve.limit) <= combined
        for f in (Moebius(2.0), Moebius(0.4),
                  BumpPerturbation(Moebius(2.0), [Bump(0.4, 0.2, 0.1)])):
            e = asymptotic_variation(f)
            assert e.limit - e.lower_bound >= -1e-6


def test_06_geometric_mean_conjugacy_bound():
    with _Budget(10.0):
        t = ActionTuple(generators=(Moebius(2.0),))
        for n in (4, 8, 16):
            rep = geometric_mean_conjugacy(t, n=n)
            # var(log Df^n)/n = 2 ln 2 exactly for the Moebius family
            assert rep.vars_conjugate[0] <= 2.0 * LN2 + 1e-6


def test_07_mather_inequality():
    with _Budget(30.0):
        flowable = Moebius(2.0)
        rep = mather_inequality_check(flowable)
        assert rep["slack"] >= -(rep["vinf_uncertainty"] + 1e-4)
        assert rep["var_logDM"] <= 1e-4

        bumped = BumpPerturbation(Moebius(2.0), [Bump(0.4, 0.2, 0.1)])
        rep_b = mather_inequality_check(bumped)
        assert rep_b["slack"] >= -(rep_b["vinf_uncertainty"] + 1e-4)
        assert rep_b["var_logDM"] > 0.01

        # stability under deepening the comparison window
        for f in (flowable, bumped):
            a = mather_invariant(f, m=8, n=8).var_logDM
            b = mather_invariant(f, m=10, n=10).var_logDM
            assert abs(a - b) <= 1e-4


def test_08_drift_matches_asymptotic_variation():
    with _Budget(10.0):
        rep = coboundary_drift(ActionTuple(generators=(Moebius(2.0),)), n=32)
        assert abs(rep["drift"] - 2.0 * LN2) <= 1e-3
        assert abs(rep["defect"] - rep["drift"]) <= 0.1 * rep["drift"]


def test_09_deformation_pipeline():
    with _Budget(60.0):
        act = example_two_component_action()
        path = DeformationPath(act)
        xs = np.linspace(0.0, 1.0, 513)
        a0 = path.at(0.0)
        a1 = path.at(1.0)
        for i, g in enumerate(act.generators):
            assert float(np.max(np.abs(a0.generators[i].value(xs)
                                       - g.value(xs)))) < 1e-9
            assert float(np.max(np.abs(a1.generators[i].value(xs)
                                       - xs))) < 1e-9
        cert = path.certificate(ts=[0.1 * i for i in range(1, 10)])
        assert cert["holds"]
        assert cert["bound"] == pytest.approx(2.0 * cert["source_d_star"],
                                              rel=1e-12)
        for s in cert["samples"]:
            assert s["d_star"] <= cert["bound"] + 1e-4
            assert s["commutation"] <= \
                10.0 * cert["source_commutation"] + 1e-9


def test_10_staircase_exact_bounds():
    with _Budget(10.0):
        tree = build_staircase(8)
        for n in (2, 3, 4):
            rep = staircase_report(tree, n)
            assert rep.var_lower_bound >= Fraction(1, 4)  # exact rational
            assert rep.sup_deriv_dist <= rep.sup_bound    # eps = 3^-n family
            assert rep.var_deriv <= rep.M_prime * (2.0 / 3.0) ** n + 1e-12
            assert rep.holds


def test_11_hyperbolic_example():
    with _Budget(5.0):
        rep = hyperbolic_example(1000)
        for k, v in enumerate(rep.annulus_var_g, start=1):
            assert v == Fraction(1, k * k)
        # the exact partial sum certifies 1/k^2 for every annulus up to N
        assert rep.partial_sum_g == sum(Fraction(1, k * k)
                                        for k in range(1, 1001))
        assert float(rep.partial_sum_root) >= 0.9 * float(rep.harmonic_N)


def test_12_brick_flow_checks():
    with _Budget(10.0):
        reports = {k: sergeraert_check(k) for k in (3, 4)}
        for rep in reports.values():
            assert rep.half_map_residual <= 1e-12
        r3 = reports[3].ratio_unit_scale
        r4 = reports[4].ratio_unit_scale
        assert abs(r3 - r4) <= 0.05 * max(r3, r4)
        assert reports[4].log2_total > reports[3].log2_total


def test_13_averaging_toward_rotation():
    with _Budget(20.0):
        t = ActionTuple(generators=(conjugated_rotation(GOLDEN),))
        dists = [herman_average(t, n).rotation_distances[0]
                 for n in (4, 16, 64)]
        assert dists[0] > dists[1] > dists[2]


def test_14_metric_relations():
    with _Budget(5.0):
        rng = random.Random(0)

        def rand_map():
            k = rng.randint(1, 3)
            maps = [Moebius(math.exp(rng.uniform(-1.2, 1.2)))
                    for _ in range(k)]
            out = maps[0]
            for m in maps[1:]:
                out = compose(out, m)
            return out

        for _ in range(100):
            f, g = rand_map(), rand_map()
            for r in ("1", "1+bv", "1+ac", "2"):
                d = metric(f, g, r)
                ds = metric(f, g, r, starred=True)
                assert d - ds >= -1e-9
                assert 2.0 * ds - d >= -1e-9
            assert metric(f, g, "1+bv") - metric(f, g, "1") >= -1e-9
