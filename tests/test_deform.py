"""Tests for deformation machinery: averaging toward rotations, geometric-mean
conjugation, interpolation between conjugate actions, flow regularization,
log-linear paths, action classification, and finite-order normal forms."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import spence

from difflab import (
    ActionTuple,
    Bump,
    BumpPerturbation,
    ComponentwiseDiffeo,
    DeformationPath,
    FlowTime,
    GridMap,
    Moebius,
    Rotation,
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
    rotation_number,
    szekeres_field,
)
from difflab import deform, diffeo
from difflab.deform import _flow_average
from difflab.gridfn import ToleranceConfig, gauss_legendre
from difflab.diffeo import ChartMap
from difflab.szekeres import SzekeresField

LN2 = math.log(2.0)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_BUMPED = BumpPerturbation(Moebius(2.0), [Bump(0.4, 0.2, 0.05)])


def conjugated_rotation(alpha, amp=0.2, freq=1, N=4096):
    x = np.linspace(0.0, 1.0, N + 1)
    w = 2.0 * math.pi * freq
    h = GridMap(x + amp * np.sin(w * x) / w, np.log1p(amp * np.cos(w * x)),
                "circle")
    return compose(h, compose(Rotation(alpha), inverse(h)))


class TestHermanAverage:
    def test_rigid_rotation_already_averaged(self):
        t = ActionTuple(generators=(Rotation(0.3),))
        rep = herman_average(t, 4)
        assert rep.rotation_distances[0] < 1e-12

    def test_word_budget_is_checked_before_rotation_numbers(self, monkeypatch):
        calls = []

        def counting(g):
            calls.append(g)
            return rotation_number(g)

        monkeypatch.setattr(diffeo, "rotation_number", counting)
        g = conjugated_rotation(GOLDEN)
        with pytest.raises(ValueError, match="word budget"):
            herman_average(ActionTuple((g, g)), 1001)
        assert calls == []

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

    def test_falsified_bound_is_reported(self, monkeypatch):
        # var(log D conj) equals its bound here, so a tolerance of -1 falsifies
        # it: the report says so through its slacks and raises nothing
        monkeypatch.setattr(deform, "_GM_BOUND_TOL", -1.0)
        rep = geometric_mean_conjugacy(ActionTuple(generators=(Moebius(2.0),)),
                                       n=8)
        assert all(s < 0.0 for s in rep.slacks)

    def test_circle_generator_within_its_bound(self, circle_pair):
        # the circle branch measures variation with the seam term
        rep = geometric_mean_conjugacy(circle_pair, n=8)
        assert all(s >= 0.0 for s in rep.slacks)


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

    def test_circle_pair_in_c2(self):
        # circle maps take d_2 from finite differences of their sampled
        # log-derivatives; the conjugacy itself is a circle map
        g = conjugated_rotation(GOLDEN)
        phi = conjugated_rotation(0.0, amp=0.05).maps[0]
        rho0 = ActionTuple(generators=(g,))
        rho1 = ActionTuple(generators=(compose(phi, compose(g, inverse(phi))),))
        s = interpolation_path(rho0, rho1, phi, 0.5, r="2")
        cert = s.certificate
        assert s.action.kind == "circle"
        assert cert["holds"]
        assert all(math.isfinite(cert[k]) for k in
                   ("d_star_t", "bound", "d1_star_phi_t", "inflation_ratio"))


def _bridge_average(x, lam):
    """int_0^1 log Df^s(x) ds for the bridge field X = -lam x(1 - x), whose
    flow has Df^s(x) = e^(-lam s) / (1 - x + x e^(-lam s))^2: with
    c = x / (1 - x) and Li2(-u) = spence(1 + u),
    int_0^1 log(1 + c e^(-lam s)) ds = (Li2(-c e^-lam) - Li2(-c)) / lam."""
    c = x / (1.0 - x)
    tail = (spence(1.0 + c * math.exp(-lam)) - spence(1.0 + c)) / lam
    return -0.5 * lam - 2.0 * (np.log1p(-x) + tail)


def _average_on_grid(X, n=4096):
    """The interior grid nodes of regularize_flow and the flow average on
    them, from the time-1 jet of the grid."""
    xg = np.linspace(0.0, 1.0, n + 1)
    fx, _ = FlowTime(X, 1.0).jet(xg)
    return xg[1:-1], _flow_average(X, xg[1:-1], fx[1:-1])


def _example_flowable_field():
    decomp = classify_action(example_two_component_action())
    return next(c for c in decomp.components if c.tag == "flowable").field


class TestRegularizeFlow:
    def test_moebius_field(self):
        rep = regularize_flow(moebius_field(2.0))
        assert rep.checks["deriv_identity_ok"]
        assert rep.checks["var_DX"] == pytest.approx(2.0 * LN2, rel=1e-4)
        # the regularized field still has multiplier -ln 2 at the origin
        assert float(rep.field.DX(np.array(0.0))) == pytest.approx(-LN2,
                                                                   abs=1e-6)

    def test_non_finite_average_raises(self, monkeypatch):
        def planted(X, x, fx):
            out = _flow_average(X, x, fx)
            out[out.size // 2] = np.nan
            return out

        monkeypatch.setattr(deform, "_flow_average", planted)
        with pytest.raises(OverflowError):
            regularize_flow(moebius_field(2.0))

    def test_bad_regularity_selector(self):
        with pytest.raises(ValueError):
            regularize_flow(moebius_field(2.0), r="5")

    def test_c2_bound(self):
        # sup |D^2 X~| is bounded by d*_2 of the time-1 map (1.40 <= 2.0)
        checks = regularize_flow(moebius_field(2.0), r="2").checks
        assert 1.0 < checks["d2_norm"] <= checks["d2_bound"] == pytest.approx(2.0, rel=1e-3)

    def test_regularized_field_flow_log_deriv(self):
        # the chain rule through phi agrees with the field ratio
        Xt = regularize_flow(szekeres_field(Moebius(2.0))).field
        xs = np.linspace(0.002, 0.998, 199)
        ts = np.linspace(-1.5, 2.5, xs.size)
        y, ld = Xt.flow_log_deriv(xs, ts)
        assert np.max(np.abs(y - Xt.flow(xs, ts))) < 1e-12
        assert np.max(np.abs(ld - np.log(Xt.X(y) / Xt.X(xs)))) < 1e-10

    @pytest.mark.parametrize("a", [2.0, 8.0])
    def test_average_matches_bridge_closed_form(self, a):
        # the segment integral against int_0^1 log Df^s ds in closed form;
        # the largest gap sits at x = 1/4096 (9.3e-11 for a = 2)
        x, avg = _average_on_grid(moebius_field(a))
        assert np.max(np.abs(avg - _bridge_average(x, math.log(a)))) <= 1e-10

    def test_average_of_example_flowable_field_matches_closed_form(self):
        # the flowable chart carries the time-0.8 map of moebius_field(2),
        # so its Szekeres field is the bridge of lam = 0.8 ln 2 up to its
        # table; without the tau-length normalization the gap is 3.1e-8
        # near the ends, with it 9.7e-10
        x, avg = _average_on_grid(_example_flowable_field())
        assert np.max(np.abs(avg - _bridge_average(x, 0.8 * LN2))) <= 2e-9

    @pytest.mark.parametrize("make", [
        lambda: moebius_field(2.0),
        lambda: moebius_field(8.0),
        _example_flowable_field,
    ])
    def test_whole_cells_match_split_cells_within_stated_error(self, make, monkeypatch):
        X = make()
        rep = regularize_flow(X)
        assert rep.average_error == 1e-10
        assert "average_error" not in rep.checks and "average_error" not in repr(rep)
        x, whole = _average_on_grid(X)

        def halves(g, s):
            return gauss_legendre(g, s / 2) + gauss_legendre(lambda u: g(s / 2 + u), s / 2)

        monkeypatch.setattr(deform, "gauss_legendre", halves)
        _, split = _average_on_grid(X)
        assert np.max(np.abs(whole - split)) <= rep.average_error

    def test_average_walks_each_point_out_once(self, monkeypatch):
        # the time-1 jet walks the 4095 interior grid points out once, and
        # the average reads X one Gauss-Legendre row of the at most 8190
        # merged points at a time, plus the grid: 64 Simpson times walked
        # them out 64 times
        X = szekeres_field(BumpPerturbation(Moebius(2.0), [Bump(0.45, 0.2, 0.08)]))
        walked, reads, done = [], [], [False]
        walk_out, read, average = SzekeresField._walk_out, SzekeresField.X, deform._flow_average

        def counted_walk_out(self, y, j, with_log=False):
            if not done[0]:
                walked.append(int(np.count_nonzero(j)))
            return walk_out(self, y, j, with_log)

        def counted_read(self, x):
            if not done[0]:
                reads.append(np.size(x))
            return read(self, x)

        def flagged_average(*args):
            try:
                return average(*args)
            finally:
                done[0] = True

        monkeypatch.setattr(SzekeresField, "_walk_out", counted_walk_out)
        monkeypatch.setattr(SzekeresField, "X", counted_read)
        monkeypatch.setattr(deform, "_flow_average", flagged_average)
        regularize_flow(X)
        assert sum(walked) <= 4095
        assert len(reads) == 8 and max(reads) <= 2 * 4096

    def test_leaf_calls(self, leaf_counter):
        # one time-1 jet of the grid, eight reads of X for the segment
        # average, plus the checks, measured 474 leaf calls; a Simpson
        # average over 64 times in chunks of 8 took 756, and 64 separate
        # flow evaluations, which walked every orbit four times each, 9519
        f = leaf_counter(Moebius(2.0))
        X = szekeres_field(f)
        before = f.calls
        regularize_flow(X)
        assert f.calls - before <= 474

    def test_bumped_moebius_identity_error(self):
        # log Dphi once came from a PCHIP table and phi from a second one on
        # a dense trapezoid grid, and the finite differences of X~ read
        # their mismatch: 9.7e-3.  Its own 1e-5 bound and the variation
        # check still fail here (2.5e-5, and a 3.5e-6 variation gap)
        rep = regularize_flow(szekeres_field(_BUMPED))
        assert rep.checks["deriv_identity_max_err"] < 1e-4

    def test_flowable_chart_of_example_action(self):
        # the Szekeres field of the chart is read from a C^1 table; a
        # piecewise-linear one left an identity error near 1e-5
        decomp = classify_action(example_two_component_action())
        comp = next(c for c in decomp.components if c.tag == "flowable")
        rep = regularize_flow(comp.field)
        assert rep.checks["deriv_identity_max_err"] <= 1e-6


@pytest.fixture(scope="module", params=["moebius", "bumped"])
def conjugacy(request):
    f = {"moebius": Moebius(2.0), "bumped": _BUMPED}[request.param]
    return regularize_flow(szekeres_field(f)).conjugacy


class TestSmoothConjugacy:
    # the grid of regularize_flow, and probes across [0, 1] and across
    # the cells near 0.9988 where the bumped map's log Dphi moves by 1
    # within one cell
    NODES = np.linspace(0.0, 1.0, 4097)
    PROBES = np.concatenate((np.linspace(0.001, 0.999, 97),
                             np.linspace(0.9985, 0.9991, 41)))

    def test_value_is_primitive_of_exp_log_deriv(self, conjugacy):
        # phi(x) - phi(x_i) against the quadrature of exp(log Dphi) over
        # [x_i, x]; a dense trapezoid table read by PCHIP missed by 5.0e-8
        i = np.searchsorted(self.NODES, self.PROBES, side="right") - 1
        lo = self.NODES[i]
        ref = np.array([quad(lambda u: np.exp(conjugacy.log_deriv(u)), a, b,
                             epsabs=1e-16, epsrel=1e-14)[0]
                        for a, b in zip(lo, self.PROBES)])
        got = conjugacy.value(self.PROBES) - conjugacy.value(lo)
        assert np.max(np.abs(got - ref)) <= 1e-13

    def test_inverse_round_trips(self, conjugacy):
        y = np.concatenate((self.NODES, self.PROBES))
        phinv = inverse(conjugacy)
        assert np.max(np.abs(conjugacy.value(phinv.value(y)) - y)) <= 1e-14
        assert np.max(np.abs(phinv.value(conjugacy.value(y)) - y)) <= 1e-14


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

    def test_cyclic_with_a_trivial_generator(self):
        # the identity has translation time 0 on the component of Moebius(2)
        dec = classify_action(ActionTuple(generators=(Moebius(2.0), identity())))
        (comp,) = dec.components
        assert comp.tag == "cyclic"
        assert comp.exponents == (1, 0)

    @pytest.mark.parametrize("times, moebius", [
        ((0.4, 0.6), False),
        ((2.0, 3.0), False),
        ((2.0, 3.0), True),
    ], ids=["flow-0.4-0.6", "flow-2-3", "moebius-4-8"])
    def test_cyclic_root_realized_by_no_generator(self, times, moebius):
        # times 2s and 3s of one flow are h^2 and h^3 for h its time-s map,
        # which neither generator is; Moebius(2^t) is the time-t map of
        # moebius_field(2); each reads its times off a Szekeres table of the
        # first generator
        X = moebius_field(2.0)
        gens = tuple(Moebius(2.0 ** t) if moebius else FlowTime(X, t) for t in times)
        dec = classify_action(ActionTuple(generators=gens))
        (comp,) = dec.components
        assert comp.tag == "cyclic"
        assert comp.exponents == (2, 3)
        assert comp.base_time == Fraction(1, 2)
        assert any("no generator realizes the common root" in w
                   for w in comp.warnings)

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

    def test_componentwise_charts_are_read_directly(self):
        # each component's chart is the FlowTime the generator holds for it
        act = example_two_component_action()
        dec = classify_action(act)
        assert len(dec.components) == 2
        for comp in dec.components:
            for g, ch in zip(act.generators, comp.charts):
                assert ch is g.charts[g.intervals.index(comp.interval)]
                assert isinstance(ch, FlowTime)

    def test_other_generators_get_a_chart_map(self):
        f = Moebius(2.0)
        (comp,) = classify_action(ActionTuple(generators=(f, iterate(f, 2)))).components
        assert all(isinstance(ch, ChartMap) for ch in comp.charts)
        g = example_two_component_action().generators[0]
        assert isinstance(deform._chart(g, 0.0, 0.25), ChartMap)

    def test_chart_shortcut_agrees_with_chart_map(self):
        # inside the chart; at the end 1/2 that the components share, the
        # ChartMap reads the neighbor's log-derivative (the later interval
        # wins there), the shortcut the component's own
        probes = np.linspace(0.0, 1.0, 513)[1:-1]
        for g in example_two_component_action().generators:
            for a, b in g.intervals:
                y, ld = deform._chart(g, a, b).jet(probes)
                y_ref, ld_ref = ChartMap(g, a, b).jet(probes)
                assert np.max(np.abs(y - y_ref)) <= 1e-12
                assert np.max(np.abs(ld - ld_ref)) <= 1e-12

    def test_expanding_generators_read_negated_times(self):
        # every generator of the inverse action expands, so each component
        # embeds the inverse of its reference chart
        act = example_two_component_action()
        fwd = classify_action(act).components
        back = classify_action(
            ActionTuple(tuple(inverse(g) for g in act.generators))).components
        assert [c.tag for c in back] == [c.tag for c in fwd] == ["flowable", "cyclic"]
        assert back[1].exponents == (-1, -2)
        assert back[1].base_time == 1
        for c, d in zip(fwd, back):
            assert np.max(np.abs(np.add(c.alphas, d.alphas))) <= 1e-10

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

    def test_every_component_is_deformed_at_r2(self):
        # 17 flowable components on the dyadic cells [k/32, (k+1)/32], the
        # identity on [17/32, 1]; cells ending at k/17 raise TailNotReached
        X = moebius_field(2.0)
        ivs = [(k / 32, (k + 1) / 32) for k in range(17)]
        act = ActionTuple(tuple(ComponentwiseDiffeo(ivs, [FlowTime(X, time)] * 17)
                                for time in (0.8, 0.8 * math.sqrt(2.0))))
        path = DeformationPath(act, r="2", cfg=ToleranceConfig(grid_N=256))
        assert len(path.plans) == 17
        cert = path.certificate(ts=[0.0, 0.25])
        assert cert["crashed_components"] == 0
        assert [row["ok"] for row in cert["samples"]] == [True, True]

    def test_path_construction_reads_no_r(self, monkeypatch):
        rs = []

        def counted(f, g, r="1", *args, **kwargs):
            rs.append(str(r))
            return metric(f, g, r, *args, **kwargs)

        monkeypatch.setattr(deform, "metric", counted)
        DeformationPath(example_two_component_action(), r="2")
        assert "2" not in rs

    def test_path_is_the_same_for_both_metrics(self):
        act = example_two_component_action()
        paths = [DeformationPath(act, r=r) for r in ("1+ac", "2")]
        x = np.linspace(0.0, 1.0, 1025)
        for t in (0.3, 0.7):
            for f, g in zip(*(p.at(t).generators for p in paths)):
                for u, v in zip(f.jet(x), g.jet(x)):
                    assert np.array_equal(u, v)

    @pytest.mark.xfail(strict=True, reason=(
        "r = '2' end defect: FlowTime._affine_deriv probes 2e-9 inside x = 1, "
        "where (DX(f^t y) - DX(y)) / X(y) cancels for the regularized field; "
        "d*_2 at t = 0.6 reads 42.7 against the bound 6.66"))
    def test_moebius_pair_holds_at_r2(self):
        X = moebius_field(2.0)
        act = ActionTuple((FlowTime(X, 1.0), FlowTime(X, math.sqrt(2.0))))
        cert = DeformationPath(act, r="2").certificate(ts=[0.6])
        assert cert["samples"][0]["ok"]

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
        h = GridMap(x + 0.2 * np.sin(w * x) / w, np.log1p(0.2 * np.cos(w * x)),
                    "circle")
        g = compose(h, compose(Rotation(0.5), inverse(h)))
        rep = normalize_finite_order(g, 2)
        assert rep.conjugation_residual < 1e-6
        # the conjugacy really sends g to the half rotation off the last cell
        probe = np.linspace(0.0, 0.5, 257)
        phi = rep.conjugacy
        err = np.abs(g.value(phi.value(probe)) - phi.value(probe + 0.5))
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
