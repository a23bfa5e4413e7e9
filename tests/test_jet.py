"""jet(x) = (value, log-derivative) in one pass, and the evaluations it saves."""

import functools
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import difflab.diffeo as diffeo
from difflab import (
    ActionTuple,
    AnalyticField,
    Bump,
    BumpDisplacement,
    BumpPerturbation,
    Composition,
    DeformationPath,
    FlowTime,
    GridMap,
    InverseMap,
    Moebius,
    Rotation,
    commutator_residual,
    compose,
    example_two_component_action,
    inverse,
    iterate,
    moebius_field,
    regularize_flow,
    szekeres_field,
)
from difflab.deform import ComponentwiseDiffeo, _SmoothConjugacy
from difflab.diffeo import ChartMap, CircleDiffeo, Diffeo, IntervalDiffeo, _same_map
from difflab.gridfn import DEFAULT_CONFIG


@functools.lru_cache(maxsize=None)
def _interval_maps():
    """One map of every interval class, Szekeres flows and chart maps
    included."""
    bumped = BumpPerturbation(Moebius(2.0), [Bump(0.45, 0.2, 0.08)])
    X = szekeres_field(bumped)
    grid = GridMap.from_log_deriv(0.3 * np.sin(2 * np.pi * np.linspace(0.0, 1.0, 257)))
    xs = np.linspace(0.0, 1.0, 65)
    smooth = _SmoothConjugacy(xs, 0.2 * np.cos(np.pi * xs))
    bridge = moebius_field(2.0)
    flows = [FlowTime(bridge, 0.7), FlowTime(X, 0.6), FlowTime(X, 0.0),
             FlowTime(AnalyticField("parabolic_right", 0.8), -0.4),
             FlowTime(regularize_flow(X).field, 0.5)]
    chartwise = ComponentwiseDiffeo([(0.0, 0.5), (0.5, 1.0)],
                                    [FlowTime(bridge, 0.8), iterate(grid, 2)])
    bumps = BumpDisplacement([Bump(0.3, 0.1, 0.05), Bump(0.7, 0.2, -0.08)])
    return [Moebius(3.0), bumped, bumps, grid, smooth, *flows, chartwise,
            Composition([Moebius(2.0), grid, InverseMap(smooth)]),
            InverseMap(bumped), InverseMap(flows[0]), ChartMap(flows[0], 1.0, 0.0),
            iterate(bumped, 3), ChartMap(chartwise, 0.0, 0.5)]


@functools.lru_cache(maxsize=None)
def _circle_maps():
    xs = np.linspace(0.0, 1.0, 257)
    grid = GridMap(xs + 0.05 * np.sin(2 * np.pi * xs),
                   np.log1p(0.1 * np.pi * np.cos(2 * np.pi * xs)), "circle")
    fine = GridMap(xs + 0.03 * np.sin(4 * np.pi * xs) / (4 * np.pi),
                   np.log1p(0.03 * np.cos(4 * np.pi * xs)), "circle")
    comp = compose(grid, compose(Rotation(0.3), fine))
    return [Rotation(0.3), grid, fine, comp, inverse(grid),
            inverse(comp), InverseMap(comp), iterate(fine, 3)]


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


# drawn points stay 1e-14 inside: a Szekeres walk from within an ulp of 1
# stalls (f(x) rounds to x) and exhausts its budget in value and jet alike
@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(1e-14, 1.0 - 1e-14), min_size=1, max_size=6))
def test_jet_is_value_and_log_deriv_bit_for_bit(drawn):
    pts = np.array([0.0, 1.0, 1e-14, 1.0 - 1e-14, *drawn])
    for f in _interval_maps():
        v, ld = f.jet(pts)
        assert _bits(v) == _bits(f.value(pts)), f
        assert _bits(ld) == _bits(f.log_deriv(pts)), f
        v, ld = f.jet(pts[-1])
        assert _bits(v) == _bits(f.value(pts[-1])), f
        assert _bits(ld) == _bits(f.log_deriv(pts[-1])), f
    for F in _circle_maps():
        v, ld = F.jet(pts)
        assert _bits(v) == _bits(F.value(pts)), F
        assert _bits(ld) == _bits(F.log_deriv(pts)), F


def _orders(action):
    g, h = action.generators
    return compose(g, h), compose(h, g)


class TestSameMap:
    def test_example_action_orders_are_one_expression(self):
        path = DeformationPath(example_two_component_action())
        for t in (0.0, 0.6, 0.8, 0.9):
            assert _same_map(*_orders(path.at(t)))

    def test_conjugated_rows_are_not(self):
        path = DeformationPath(example_two_component_action())
        assert not _same_map(*_orders(path.at(0.3)))

    def test_flow_times_of_different_field_objects_are_not(self, monkeypatch):
        # equal parameters, but only the same field object is known to give
        # the same bits
        calls = Counter()
        real = diffeo.metric

        def counting(*args, **kwargs):
            calls["metric"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(diffeo, "metric", counting)
        X1, X2 = moebius_field(2.0), moebius_field(2.0)
        assert not _same_map(FlowTime(X1, 0.3), FlowTime(X2, 0.3))
        pair = ActionTuple((FlowTime(X1, 0.3), FlowTime(X2, 0.3)))
        assert not _same_map(*_orders(pair))
        assert commutator_residual(pair) == 0.0
        assert calls["metric"] == 1
        same = ActionTuple((FlowTime(X1, 0.3), FlowTime(X1, 0.5)))
        assert _same_map(*_orders(same))
        assert _same_map(FlowTime(X1, 0.3), FlowTime(X1, 0.3))

    def test_powers_and_moebius(self):
        g = GridMap.from_log_deriv(0.2 * np.linspace(0.0, 1.0, 65))
        assert _same_map(*_orders(ActionTuple((iterate(g, 2), g))))
        assert _same_map(Moebius(2.0), Moebius(2.0))
        assert not _same_map(Moebius(2.0), Moebius(3.0))
        assert not _same_map(iterate(g, 2), iterate(g, 3))

    def test_circle_inverse_leaves_the_map_unchanged(self):
        xs = np.linspace(0.0, 1.0, 257)
        c = GridMap(xs + 0.05 * np.sin(2 * np.pi * xs),
                    np.log1p(0.1 * np.pi * np.cos(2 * np.pi * xs)), "circle")
        f, g = compose(Rotation(0.1), c), compose(Rotation(0.1), c)
        assert _same_map(f, g)
        InverseMap(f).value(np.linspace(-1.0, 1.0, 5))
        assert _same_map(f, g)


def _library_subclasses(cls):
    """Every subclass of cls, recursively, that difflab itself defines."""
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("difflab."):
            yield sub
        yield from _library_subclasses(sub)


def test_every_map_class_is_in_the_lists():
    # the leaf bases are markers: their value raises
    concrete = set(_library_subclasses(Diffeo)) - {IntervalDiffeo, CircleDiffeo}
    listed = {type(f) for f in _interval_maps() + _circle_maps()}
    assert {c.__name__ for c in concrete - listed} == set()
    charts = [(f.a, f.b) for f in _interval_maps() if isinstance(f, ChartMap)]
    assert any(a < b for a, b in charts) and any(a > b for a, b in charts)


def test_example_commutator_makes_no_metric_call(monkeypatch):
    calls = Counter()
    monkeypatch.setattr(diffeo, "metric",
                        lambda *a, **k: calls.update(["metric"]) or 1.0)
    assert commutator_residual(example_two_component_action()) == 0.0
    assert calls["metric"] == 0


def test_certificate_samples_each_generator_once_per_row(monkeypatch):
    path = DeformationPath(example_two_component_action())
    ts = [0.0, 0.3, 0.5, 0.8, 0.9]
    rows = [path.at(t) for t in ts]
    full = DEFAULT_CONFIG.grid_N + 1
    calls = Counter()
    real = ComponentwiseDiffeo.jet

    def counting(self, x):
        if np.size(x) == full:
            calls[id(self)] += 1
        return real(self, x)

    monkeypatch.setattr(ComponentwiseDiffeo, "jet", counting)
    cert = path.certificate(ts=ts)
    assert cert["holds"]
    # the t = 0 row is the source, sampled once for the bound and reused
    gens = [g for act in rows for g in act.generators]
    assert [calls[id(g)] for g in gens] == [1] * len(gens)
