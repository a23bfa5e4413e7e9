"""Canonical deformation machinery for commuting tuples.

Averaging conjugacies (Herman box averages, geometric-mean conjugacies),
interpolation of conjugated actions along t * log D(conjugacy), flow
regularization (the averaged conjugacy that straightens a C^1 flow so that
the field derivative equals log Df in the new coordinate), classification of
a commuting interval tuple into per-component cyclic/flowable pieces, and the
glued deformation path from an action to the trivial one, with numeric
certificates at every sampled parameter.  The path is the same for r =
"1+ac" and "2"; the certificates read every d*_r(rho, id) through
``_sampled_d_star``, against one sample of the identity.

Every box of words g_d^{k_d} o ... o g_1^{k_1} (g_1 first), 0 <= k_i < n
(the Herman and geometric-mean averages), and the orbits read at every
power (the finite-order orbit checks) walk through the one kernel
diffeo._walk_words: row starts depth first, k_1 outermost, then the g_d
rows stacked in batches that take n - 1 steps each; circle orbits walk the
lift.  A single power (the geometric-mean variation bound, the cyclic
component's h^m) is read through diffeo.iterate, closed form where the map
has one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .gridfn import (
    ABS_TOL,
    DEFAULT_CONFIG,
    CubicTable,
    PointMemo,
    ToleranceConfig,
    gauss_legendre,
    not_a_knot_slopes,
    variation,
)
from .diffeo import (
    ActionTuple,
    ChartMap,
    CircleDiffeo,
    GridMap,
    IntervalDiffeo,
    commutator_residual,
    compose,
    fixed_point_analysis,
    grid_sample,
    identity,
    inverse,
    iterate,
    metric,
    sampled_distance,
    _jet_step,
    _table_inverse,
    _walk_words,
)
from .szekeres import (
    FlowTime,
    SzekeresField,
    VectorField1D,
    moebius_field,
)
from .invariants import asymptotic_variation

__all__ = [
    "ComponentwiseDiffeo",
    "HermanReport",
    "herman_average",
    "GeometricMeanReport",
    "geometric_mean_conjugacy",
    "InterpolationStep",
    "interpolation_path",
    "RegularizedFlow",
    "regularize_flow",
    "log_linear_deform",
    "Component",
    "ComponentDecomposition",
    "classify_action",
    "DeformationPath",
    "deform_action",
    "example_two_component_action",
    "NormalFormReport",
    "normalize_finite_order",
    "finite_order_structure",
]


# ---------------------------------------------------------------------------
# chart-wise maps


class ComponentwiseDiffeo(IntervalDiffeo):
    """Identity outside the given disjoint intervals; inside each interval
    acts by the affine chart conjugate of a diffeomorphism of [0, 1]."""

    def __init__(self, intervals, charts):
        pairs = sorted(zip([tuple(map(float, iv)) for iv in intervals], charts))
        self.intervals = tuple(iv for iv, _ in pairs)
        self.charts = tuple(c for _, c in pairs)
        prev = 0.0
        for a, b in self.intervals:
            if not (0.0 <= a < b <= 1.0) or a < prev - 1e-12:
                raise ValueError("intervals must be disjoint inside [0, 1]")
            prev = b

    def _pieces(self, x):
        """(mask, a, b, chart, chart coordinates) of every interval that
        holds points of the 1-d array x."""
        for (a, b), c in zip(self.intervals, self.charts):
            m = (x >= a) & (x <= b)
            if np.any(m):
                yield m, a, b, c, np.clip((x[m] - a) / (b - a), 0.0, 1.0)

    def _value(self, x):
        val = x.copy()
        for m, a, b, c, u in self._pieces(x):
            val[m] = a + (b - a) * c._value(u)
        return val

    def _jet(self, x):
        val = x.copy()
        ld = np.zeros_like(x)
        for m, a, b, c, u in self._pieces(x):
            y, ld[m] = c._jet(u)
            val[m] = a + (b - a) * y
        return val, ld

    def _affine_deriv(self, x):
        aff = np.zeros_like(x)
        for m, a, b, c, u in self._pieces(x):
            aff[m] = c._affine_deriv(u) / (b - a)
        return aff

    def inverse_map(self):
        return ComponentwiseDiffeo(self.intervals, [inverse(c) for c in self.charts])

    def _iterate_fast(self, n: int):
        return ComponentwiseDiffeo(self.intervals, [iterate(c, n) for c in self.charts])

    def _compose_fast(self, other):
        if isinstance(other, ComponentwiseDiffeo) and other.intervals == self.intervals:
            return ComponentwiseDiffeo(
                self.intervals,
                [compose(c1, c2) for c1, c2 in zip(self.charts, other.charts)],
            )
        return None

    def __repr__(self):
        return f"ComponentwiseDiffeo({list(self.intervals)!r}, {list(self.charts)!r})"


def _chart(g, a: float, b: float):
    """g on its invariant interval [a, b], read in the chart u -> a + (b - a) u:
    the chart g holds for [a, b] itself when g is a ComponentwiseDiffeo with
    exactly that interval (the same map, without the masks and clips of
    the two chart changes), else ChartMap(g, a, b)."""
    if isinstance(g, ComponentwiseDiffeo) and (a, b) in g.intervals:
        return g.charts[g.intervals.index((a, b))]
    return ChartMap(g, a, b)


# ---------------------------------------------------------------------------
# Herman box averaging (circle)


@dataclass
class HermanReport:
    conjugacy: CircleDiffeo
    action: ActionTuple
    n: int
    rotation_numbers: tuple
    rotation_distances: tuple   # sup |phi f_i phi^-1 - R_{rho_i}| per generator


def herman_average(t: ActionTuple, n: int,
                   cfg: ToleranceConfig = DEFAULT_CONFIG) -> HermanReport:
    """Conjugate a commuting circle tuple by the box average

        Phi_n(x) = (1/n^d) sum F_1^{k_1}...F_d^{k_d}(x),  0 <= k_i < n,

    which pushes each generator toward the rotation by its rotation number."""
    if t.kind != "circle":
        raise ValueError("herman_average applies to circle actions")
    if n < 1:
        raise ValueError("n must be >= 1")

    if n == 1:
        phi = identity("circle")
        conjs = t.generators
    else:
        x = np.linspace(0.0, 1.0, cfg.grid_N + 1)
        total = np.zeros_like(x)
        total_d = np.zeros_like(x)
        steps = [_jet_step(g) for g in t.generators]
        for y, ld in _walk_words(steps, n, (x, np.zeros_like(x))):
            total += y
            total_d += np.exp(ld)
        lift = total / n**t.d
        logd = np.log(total_d / n**t.d)
        phi = GridMap(lift, logd, "circle")
        conjs = tuple(_conjugate(phi, g) for g in t.generators)

    rhos = tuple(r.value for r in t.rotation_numbers)
    probes = np.linspace(0.0, 1.0, 1025)
    dists = []
    for g, rho in zip(conjs, rhos):
        dd = g.value(probes) - probes - rho
        dd = dd - np.round(np.mean(dd))
        dists.append(float(np.max(np.abs(dd))))
    return HermanReport(phi, ActionTuple(tuple(conjs)), n, rhos, tuple(dists))


# ---------------------------------------------------------------------------
# geometric-mean conjugacy


@dataclass
class GeometricMeanReport:
    conjugacy: object
    action: ActionTuple
    n: int
    vars_conjugate: tuple    # var(log D(phi f_i phi^-1)) per generator
    var_bounds: tuple        # var(log Df_i^n)/n per generator
    slacks: tuple            # bound + _GM_BOUND_TOL - var; < 0 falsifies it


# how far var(log D(phi f phi^-1)) may exceed its bound var(log Df^n)/n
_GM_BOUND_TOL = 1e-6


def geometric_mean_conjugacy(t: ActionTuple, n: int = 8,
                             cfg: ToleranceConfig = DEFAULT_CONFIG
                             ) -> GeometricMeanReport:
    """Conjugacy phi_n with D(phi_n) = normalized geometric mean of the word
    derivatives over the box; shrinks var(log D) of each generator to at most
    var(log Df_i^n)/n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    circle = t.kind == "circle"
    steps = [_jet_step(g) for g in t.generators]
    x = np.linspace(0.0, 1.0, cfg.grid_N + 1)

    def mean_log_deriv(pts):
        total = np.zeros_like(pts)
        for _, ld in _walk_words(steps, n, (pts, np.zeros_like(pts))):
            total += ld
        if not np.all(np.isfinite(total)):
            raise OverflowError("word derivative accumulation left the "
                                "representable range")
        return total / n**t.d

    psi = mean_log_deriv(x)
    phi = GridMap.from_log_deriv(psi, t.kind)
    conjs = tuple(_conjugate(phi, g) for g in t.generators)

    # certified variation drop, measured parametrization-invariantly:
    # log D(phi f phi^-1) at phi(x) is u(x) = Psi(f x) + log Df(x) - Psi(x)
    # with Psi the exact box mean (no interpolation error enters the check)
    vars_c, bounds, slacks = [], [], []
    for g in t.generators:
        y, ld = g._jet(x)
        var_u = variation(mean_log_deriv(y) + ld - psi, periodic=circle)
        bound = variation(iterate(g, n)._log_deriv(x), periodic=circle) / n
        slack = bound + _GM_BOUND_TOL - var_u
        vars_c.append(var_u)
        bounds.append(bound)
        slacks.append(slack)
    return GeometricMeanReport(phi, ActionTuple(conjs), n,
                               tuple(vars_c), tuple(bounds), tuple(slacks))


# ---------------------------------------------------------------------------
# interpolation along t log D(phi)


def _scaled_conjugacy(phi, s: float, cfg: ToleranceConfig):
    """The conjugacy with log-derivative s * log D(phi) (normalized)."""
    if s <= 0.0:
        return identity(phi.kind)
    if s >= 1.0:
        return phi
    x = np.linspace(0.0, 1.0, cfg.grid_N + 1)
    ld = s * np.asarray(phi.log_deriv(x), dtype=float)
    return GridMap.from_log_deriv(ld, phi.kind)


def _conjugate(phi, g):
    return compose(phi, compose(g, inverse(phi)))


def _sampled_d_star(act: ActionTuple, ident, r: str, cfg: ToleranceConfig):
    """The generators of act, each sampled once on the metric grid, and
    d*_r(act, id): the largest starred distance of a sample to ident."""
    samples = [grid_sample(g, cfg) for g in act.generators]
    return samples, max(sampled_distance(s, ident, r, starred=True) for s in samples)


@dataclass
class InterpolationStep:
    action: ActionTuple = dc_field(repr=False)
    conjugacy: object = dc_field(repr=False)
    t: float
    certificate: dict


# the largest d_1 residual of phi as a conjugacy from rho0 to rho1
_CONJUGACY_TOL = 1e-2
# how far d*_r(rho_t, id) may exceed the larger endpoint distance
_INTERP_BOUND_TOL = 1e-3


def interpolation_path(rho0: ActionTuple, rho1: ActionTuple, phi, t: float,
                       r: str = "1+ac", cfg: ToleranceConfig = DEFAULT_CONFIG
                       ) -> InterpolationStep:
    """The action phi_t rho0 phi_t^-1 with log D(phi_t) = t log D(phi) - c_t.

    Requires rho1 = phi rho0 phi^-1 within _CONJUGACY_TOL; the certificate
    checks d*_r(rho_t, id) <= max(d*_r(rho0, id), d*_r(rho1, id))
    + _INTERP_BOUND_TOL.  The identity and each map of rho0, rho1 and
    rho_t (an endpoint at t = 0 or 1) are sampled once."""
    if r not in ("1+ac", "2"):
        raise ValueError("r must be '1+ac' or '2'")
    if not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    if rho0.d != rho1.d or rho0.kind != rho1.kind:
        raise ValueError("actions must have the same shape")
    kind = rho0.kind
    ident = grid_sample(identity(kind), cfg)
    d0 = _sampled_d_star(rho0, ident, r, cfg)[1]
    s1, d1 = _sampled_d_star(rho1, ident, r, cfg)

    res = max(
        sampled_distance(b, grid_sample(_conjugate(phi, a), cfg), "1")
        for a, b in zip(rho0.generators, s1)
    )
    if res > _CONJUGACY_TOL:
        raise ValueError(f"phi is not a conjugacy from rho0 to rho1 "
                         f"(residual {res:.3e} > {_CONJUGACY_TOL:.0e})")

    if t == 0.0:
        phi_t, action, dt = identity(kind), rho0, d0
    elif t == 1.0:
        phi_t, action, dt = phi, rho1, d1
    else:
        phi_t = _scaled_conjugacy(phi, t, cfg)
        action = ActionTuple(tuple(_conjugate(phi_t, g) for g in rho0.generators))
        dt = _sampled_d_star(action, ident, r, cfg)[1]
    bound = max(d0, d1)

    # Lipschitz modulus of the conjugacy family in d_1
    delta = 1.0 / 64
    t2 = t + delta if t + delta <= 1.0 else t - delta
    phi_t2 = _scaled_conjugacy(phi, t2, cfg)
    L = metric(phi_t, phi_t2, "1", cfg=cfg) / delta

    cert = {
        "r": r,
        "t": t,
        "conjugacy_residual": res,
        "d_star_t": dt,
        "d_star_endpoints": (d0, d1),
        "bound": bound,
        "holds": bool(dt <= bound + _INTERP_BOUND_TOL),
        "lipschitz_L": L,
    }
    if r == "2":
        cert["d1_star_phi_t"] = sampled_distance(grid_sample(phi_t, cfg), ident,
                                                 "1", starred=True)
        cert["inflation_ratio"] = dt / bound if bound > 0 else 1.0
    return InterpolationStep(action, phi_t, t, cert)


# ---------------------------------------------------------------------------
# flow regularization


class _RegularizedField(VectorField1D):
    """The field phi_* X: X~(y) = Dphi(u) X(u) at u = phi^-1(y), with the
    time change pulled back through phi (flow equivariance is exact).  For
    the averaging conjugacy phi its derivative is exactly the log-derivative
    of the original time-1 map f1 in the new coordinate.  A flow's start,
    u and log Dphi(u), does not depend on the time, so ``flow_log_deriv``
    holds it for the last 8 point sets in a ``PointMemo``."""

    def __init__(self, base: VectorField1D, phi: IntervalDiffeo, f1):
        self.base = base
        self.phi = phi
        self.phinv = inverse(phi)
        self.f1 = f1
        self._edge_rates = base.edge_rates()
        self._starts = PointMemo()

    # each method checks y once, in phinv.value, and then reads phi and f1
    # through their kernels
    def _start(self, y):
        u = self.phinv.value(y)
        return u, self.phi._log_deriv(u)

    def X(self, y):
        u, ld_u = self._start(y)
        return np.exp(ld_u) * self.base.X(u)

    def flow_log_deriv(self, y, t):
        # the flow is phi o f^t o phi^-1, so by the chain rule
        # log Df~^t(y) = log Dphi(f^t u) + log Df^t(u) - log Dphi(u)
        u, ld_u = self._starts(y, self._start)
        v, ld = self.base.flow_log_deriv(u, t)
        w, ld_v = self.phi._jet(v)
        return w, ld_v + ld - ld_u

    def DX(self, y):
        u = np.asarray(self.phinv.value(y))
        return self.f1._log_deriv(u.ravel()).reshape(u.shape)[()]

    def __repr__(self):
        return f"_RegularizedField({self.base!r})"


class _SmoothConjugacy(IntervalDiffeo):
    """Interval diffeomorphism built from log-derivative samples: log Dphi
    is the not-a-knot ``CubicTable`` of the samples, and phi is its exact
    primitive,

        phi(x) = phi(x_i) + int_{x_i}^x exp(log Dphi),

    normalized to end at 1.  The node values phi(x_i) are prefix sums of
    the one cell rule ``CubicTable.integral`` of exp over whole cells, and
    a read between nodes applies the same rule to its partial cell, from
    the one cell lookup that also gives log Dphi.  D(value) is then
    exp(log_deriv) to rounding; log Dphi is C^2, so finite differences of
    conjugated fields see no slope kinks."""

    def __init__(self, nodes: np.ndarray, logd: np.ndarray):
        ld = CubicTable(nodes, logd, not_a_knot_slopes(nodes, logd))
        cells = CubicTable.integral(np.exp, ld.coef, np.diff(nodes))
        vals = np.concatenate(([0.0], np.cumsum(cells)))
        c = math.log(vals[-1])
        vals /= vals[-1]
        # log Dphi = logd - c: shift the table's constant coefficients
        ld.coef[3] -= c
        self._ld = ld
        self._vals = vals

    def _jet(self, x):
        i, c, s = self._ld.cell(x)
        return (np.clip(self._vals[i] + CubicTable.integral(np.exp, c, s), 0.0, 1.0),
                CubicTable.cubic(c, s))

    def _value(self, x):
        return self._jet(x)[0]

    def inverse_value(self, y):
        # the node table read backwards, polished by Newton on phi itself,
        # whose derivative is exp(log_deriv)
        def jet(x):
            v, ld = self._jet(x)
            return v, np.exp(ld)
        return _table_inverse(y, self._ld.x, self._vals, jet)

    def _log_deriv(self, x):
        return self._ld(x)

    def _affine_deriv(self, x):
        return self._ld.jet(x)[1]

    def __repr__(self):
        return "_SmoothConjugacy()"


@dataclass
class RegularizedFlow:
    conjugacy: IntervalDiffeo = dc_field(repr=False)
    field: VectorField1D = dc_field(repr=False)
    checks: dict
    # the quadrature error of the flow average (whole cells against split
    # cells) where the flows are C^1 at both ends: at most 9.5e-11 over the
    # analytic fields with lam in [0.1, 5] and grid_N in [64, 16384], the
    # worst cell next to an end where Df = 1/2
    average_error: float = dc_field(default=1e-10, repr=False)


def _flow_average(X: VectorField1D, x: np.ndarray, fx: np.ndarray) -> np.ndarray:
    """int_0^1 log Df^s ds at interior points x, from fx = f(x), as the
    quotient of segment integrals in ``regularize_flow``: prefix sums of
    ``gauss_legendre`` over the cells between the merged sorted points
    {x} u {fx}, each call of X reading one row of quadrature nodes.  The
    quotient divides by the tau-length T(x) of [f(x), x], which is 1 up to
    the quadrature error, so that error stays out of the average."""
    z = np.unique(np.concatenate((fx, x)))

    def rows(u):
        w = -1.0 / X.X(z[:-1] + u)  # 1/|X|
        return np.stack((-w * np.log(w), w))

    cum = np.zeros((2, z.size))
    np.cumsum(gauss_legendre(rows, np.diff(z)), axis=1, out=cum[:, 1:])
    seg = cum[:, np.searchsorted(z, x)] - cum[:, np.searchsorted(z, fx)]
    return seg[0] / seg[1] - np.log(-X.X(x))


def regularize_flow(X: VectorField1D, r: str = "1+ac",
                    cfg: ToleranceConfig = DEFAULT_CONFIG) -> RegularizedFlow:
    """Straighten a contraction flow by the averaging conjugacy

        log D(phi)(x) = int_0^1 log Df^s(x) ds - c,   phi(0) = 0,

    after which the field derivative equals log Df o phi^-1 and
    var(DX~) = var(log Df).  For X < 0 on (0, 1), y = f^s(x) turns the
    average into segment integrals over [f(x), x] (``_flow_average``),

        int log|X| / |X| dy / T(x) - log|X(x)|,   T(x) = int dy / |X|,

    where dividing by the tau-length T keeps the period's quadrature error
    out: T is 1 up to that error for an analytic field and for a Szekeres
    table, which is scaled to period 1; f and log Df come from
    one time-1 jet of the grid.  The quadrature error, whole cells against
    split cells, is ``average_error`` (1e-10) where the flows are C^1 at
    both ends; it stays out of ``checks`` and every report, whose keys the
    benchmark reference pins.

    The flows f^s of X must be C^1 at both ends.  A Szekeres field is built
    from the end 0; where its map's Mather invariant is not a rotation (var
    log DM > 0), its fractional flows are not differentiable at 1
    (Kopell-Mather), log Dphi oscillates there between grid nodes, and the
    quadrature reads up to 2e-3 (a bumped Moebius map, within 2e-3 of 1).
    A non-finite flow average raises OverflowError."""
    if r not in ("1+ac", "2"):
        raise ValueError("r must be '1+ac' or '2'")
    f1 = FlowTime(X, 1.0)

    xg = np.linspace(0.0, 1.0, cfg.grid_N + 1)
    fx, ld = f1.jet(xg)
    # endpoints: log Df^s(p) = s * log Df(p) at a fixed endpoint, so the
    # s-average is half the edge rate
    e0, e1 = X.edge_rates()
    acc = np.concatenate(([0.5 * e0], _flow_average(X, xg[1:-1], fx[1:-1]), [0.5 * e1]))
    if not np.all(np.isfinite(acc)):
        raise OverflowError("the flow average left the representable range")
    phi = _SmoothConjugacy(xg, acc)
    Xt = _RegularizedField(X, phi, f1)

    # certification of the two structural identities
    probes = np.linspace(0.05, 0.95, 181)
    h = 1e-5
    fd = (Xt.X(probes + h) - Xt.X(probes - h)) / (2 * h)
    deriv_err = float(np.max(np.abs(fd - Xt.DX(probes))))
    var_logdf = variation(ld)
    dxt = Xt.DX(xg)
    var_dxt = variation(dxt)
    checks = {
        "deriv_identity_max_err": deriv_err,
        "deriv_identity_ok": bool(deriv_err <= 1e-5),
        "var_DX": var_dxt,
        "var_logDf": var_logdf,
        "var_ok": bool(abs(var_dxt - var_logdf)
                       <= max(1e-8 * max(1.0, var_logdf), 1e-6)),
    }
    if r == "2":
        d2 = np.gradient(dxt, 1.0 / cfg.grid_N)
        d2_bound = metric(f1, identity(), "2", starred=True, cfg=cfg)
        checks["d2_norm"] = float(np.max(np.abs(d2)))
        checks["d2_bound"] = d2_bound
    return RegularizedFlow(phi, Xt, checks)


# ---------------------------------------------------------------------------
# log-linear deformation of a single generator


def log_linear_deform(g, t: float, cfg: ToleranceConfig = DEFAULT_CONFIG):
    """The path g_t with log D(g_t) = (1-t) log Dg (normalized), so that
    var(log D g_t) = (1-t) var(log Dg); g_0 = g, g_1 = id.

    For circle maps fixing 0 whose log-derivative is 1/q-periodic the
    normalization is shared by all q cells, so commutation with the rotation
    by 1/q is preserved along the whole path."""
    if not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    return _scaled_conjugacy(g, 1.0 - t, cfg)


# ---------------------------------------------------------------------------
# classification of interval actions


def _rational_verdict(alpha: float, cap: int, residual_tol: float):
    """(fraction or None, verdict, residual); verdict in
    {rational, irrational, unresolved}."""
    frac = Fraction(alpha).limit_denominator(cap)
    res = abs(alpha - float(frac))
    if res <= residual_tol:
        return frac, "rational", res
    if res <= 1e3 * residual_tol:
        return None, "unresolved", res
    return None, "irrational", res


@dataclass
class Component:
    interval: tuple
    tag: str                      # trivial | cyclic | flowable
    alphas: tuple                 # translation times of the generators
    verdicts: tuple               # per-generator rationality verdicts
    exponents: tuple | None       # cyclic: f_i = h^{m_i}
    base_time: object             # cyclic: the Fraction beta with h = f^beta
    times: tuple | None           # flowable: flow times of the generators
    warnings: tuple
    charts: tuple = dc_field(repr=False, default=())
    field: object = dc_field(repr=False, default=None)
    generator: object = dc_field(repr=False, default=None)


@dataclass
class ComponentDecomposition:
    parabolic_set: tuple
    components: tuple
    fixed_report: object = dc_field(repr=False)


# a translation time alpha reads as rational when a fraction of denominator
# at most _DENOMINATOR_CAP lies within _RESIDUAL_TOL of it
_DENOMINATOR_CAP = 10**4
_RESIDUAL_TOL = 1e-9


def classify_action(t: ActionTuple,
                    cfg: ToleranceConfig = DEFAULT_CONFIG) -> ComponentDecomposition:
    """Decompose [0,1] minus the common fixed set and tag each component.

    On each component a fixed-point-free reference generator is embedded in
    its generating flow; the translation time alpha_i of every generator is
    read off in the flow coordinate.  A rational alpha-vector means the
    component action has a cyclic image (common generator + exponents);
    otherwise the component is flowable with the measured times."""
    if t.kind != "interval":
        raise ValueError("classify_action applies to interval actions")
    res = commutator_residual(t, cfg)
    if res > 1e-4:
        raise ValueError(f"tuple does not commute (residual {res:.3e})")

    rep = fixed_point_analysis(t, cfg)
    comps = []
    probes = np.linspace(0.0, 1.0, 259)[1:-1]
    for a, b in rep.components:
        charts = tuple(_chart(g, a, b) for g in t.generators)
        disps = [c.value(probes) - probes for c in charts]
        signs = []
        for d in disps:
            if np.all(d < 0):
                signs.append(-1)
            elif np.all(d > 0):
                signs.append(+1)
            elif np.max(np.abs(d)) < 1e-9:
                signs.append(0)
            else:
                signs.append(None)
        warnings = []
        if all(s == 0 for s in signs):
            comps.append(Component((a, b), "trivial", (0.0,) * t.d,
                                   ("rational",) * t.d, None, None, None,
                                   (), charts, None, None))
            continue
        if any(s is None for s in signs):
            warnings.append("a generator changes displacement sign inside "
                            "the component; times measured at the anchor only")
        ref = next(i for i, s in enumerate(signs) if s in (-1, +1))
        contraction = charts[ref] if signs[ref] == -1 else inverse(charts[ref])
        X = SzekeresField(contraction, cfg)

        # alpha = tau(c(p)) - tau(p), the median over three anchors p
        anchors = np.array([0.35, 0.5, 0.65])
        tau_anchors = X.tau(anchors)
        alphas = []
        for c, s in zip(charts, signs):
            if s == 0:
                alphas.append(0.0)
                continue
            vals = sorted(map(float, X.tau(c.value(anchors)) - tau_anchors))
            alpha = vals[1]
            if max(vals) - min(vals) > 1e-5:
                warnings.append(
                    f"translation time spread {max(vals) - min(vals):.2e} "
                    "across anchors (commutation is only approximate)")
            alphas.append(alpha)

        verdicts, fracs = [], []
        for alpha in alphas:
            frac, verdict, _ = _rational_verdict(alpha, _DENOMINATOR_CAP, _RESIDUAL_TOL)
            verdicts.append(verdict)
            fracs.append(frac)

        if all(v == "rational" for v in verdicts):
            L = math.lcm(*(f.denominator for f in fracs))
            ints = [int(f * L) for f in fracs]
            g0 = math.gcd(*ints)
            beta = Fraction(g0, L)
            exps = tuple(k // g0 for k in ints)
            gen = None
            for i, m in enumerate(exps):
                if abs(m) == 1 and signs[i] != 0:
                    gen = charts[i] if m == 1 else inverse(charts[i])
                    break
            if gen is None:
                gen = FlowTime(X, float(beta))
                warnings.append("no generator realizes the common root "
                                "directly; using the flow time map")
            comps.append(Component((a, b), "cyclic", tuple(alphas),
                                   tuple(verdicts), exps, beta, None,
                                   tuple(warnings), charts, X, gen))
        else:
            if any(v == "unresolved" for v in verdicts):
                warnings.append("rationality unresolved at the denominator "
                                "cap; treating the component as flowable")
            comps.append(Component((a, b), "flowable", tuple(alphas),
                                   tuple(verdicts), None, None, tuple(alphas),
                                   tuple(warnings), charts, X, charts[ref]))
    return ComponentDecomposition(rep.parabolic_set, tuple(comps), rep)


# ---------------------------------------------------------------------------
# the glued deformation path


# the largest box size n tried for a cyclic component's geometric mean
_CYCLIC_N_CAP = 32
# how far d*_r(rho_t, id) may exceed 2 d*_r(rho_0, id) along the path
_PATH_BOUND_TOL = 1e-3


class DeformationPath:
    """t in [0,1] -> ActionTuple, from the source action to the trivial one.

    First half: conjugate by the scaled averaging conjugacy of each component
    (flow-straightening or geometric-mean, by tag).  Second half: shrink --
    flow times rescaled by (1-s) on flowable components, the common generator
    deformed log-linearly (powers following the exponents) on cyclic ones.
    Every non-trivial component is deformed, at either r; only
    ``certificate`` reads r.
    """

    def __init__(self, source: ActionTuple, r: str = "1+ac",
                 cfg: ToleranceConfig = DEFAULT_CONFIG):
        if r not in ("1+ac", "2"):
            raise ValueError("r must be '1+ac' or '2'")
        self.source = source
        self.r = r
        self.cfg = cfg
        self.decomp = classify_action(source, cfg)
        self._cache = {}

        self.plans = []
        for c in self.decomp.components:
            if c.tag == "flowable":
                reg = regularize_flow(c.field, cfg=cfg)
                self.plans.append(("flowable", c, reg.conjugacy, reg.field))
            elif c.tag == "cyclic":
                h = c.generator
                vinf = asymptotic_variation(h, schedule=(1, 2, 4, 8, 16))
                target = 2.0 * max(vinf.limit, 1e-12)
                # the first box size n = 2, 4, ... that meets the target, or the cap
                nn = 2
                while True:
                    gm = geometric_mean_conjugacy(ActionTuple((h,)), n=nn, cfg=cfg)
                    if gm.vars_conjugate[0] <= target or 2 * nn > _CYCLIC_N_CAP:
                        break
                    nn *= 2
                self.plans.append(("cyclic", c, gm.conjugacy,
                                   _conjugate(gm.conjugacy, h)))

    # -- evaluation ---------------------------------------------------------
    def at(self, t: float) -> ActionTuple:
        t = float(t)
        if not (0.0 <= t <= 1.0):
            raise ValueError("t must lie in [0, 1]")
        if t in self._cache:
            return self._cache[t]
        if t == 0.0:
            out = self.source
        elif t == 1.0:
            out = ActionTuple(tuple(identity() for _ in range(self.source.d)))
        else:
            intervals = [c.interval for (_, c, _, _) in self.plans]
            per_gen = [[] for _ in range(self.source.d)]
            for tag, c, phi, obj in self.plans:
                if t <= 0.5:
                    s = 2.0 * t
                    phi_s = _scaled_conjugacy(phi, s, self.cfg)
                    for i, ch in enumerate(c.charts):
                        per_gen[i].append(_conjugate(phi_s, ch))
                else:
                    s = 2.0 * t - 1.0
                    if tag == "flowable":
                        for i, time in enumerate(c.times):
                            tt = time * (1.0 - s)
                            per_gen[i].append(identity() if tt == 0.0
                                              else FlowTime(obj, tt))
                    else:
                        h_s = log_linear_deform(obj, s, self.cfg)
                        for i, m in enumerate(c.exponents):
                            per_gen[i].append(iterate(h_s, m))
            out = ActionTuple(tuple(
                ComponentwiseDiffeo(intervals, charts) if intervals else identity()
                for charts in per_gen))
        self._cache[t] = out
        return out

    # -- certificates -------------------------------------------------------
    def certificate(self, ts=None) -> dict:
        """Check the path at the sorted distinct parameters ts (default
        0, 0.1, ..., 1).

        Each row holds d*_r(rho_t, id), the largest over generators, which
        must stay within ``bound`` = 2 d*_r(rho_0, id) + _PATH_BOUND_TOL; the
        commutator residual of rho_t, which must stay within 10 times the
        source's plus ABS_TOL; and the increment max_i d_r(rho_t(i),
        rho_prev(i)) from the previous row (0 on the first).  Each generator
        is sampled on the metric grid once per row, and that sample serves
        both its d* and the next row's increment."""
        if ts is None:
            ts = [k / 10.0 for k in range(11)]
        ts = sorted(set(float(v) for v in ts))
        r, cfg = self.r, self.cfg
        ident = grid_sample(identity(), cfg)
        src = self.source
        src_samples, d_src = _sampled_d_star(src, ident, r, cfg)
        res_src = commutator_residual(src, cfg)
        bound = 2.0 * d_src
        rows = []
        prev = None
        all_ok = True
        for t in ts:
            act = self.at(t)
            cur, d_t = ((src_samples, d_src) if act is src
                        else _sampled_d_star(act, ident, r, cfg))
            res_t = commutator_residual(act, cfg)
            step = (max(sampled_distance(a, b, r) for a, b in zip(cur, prev))
                    if prev is not None else 0.0)
            ok = ((d_t <= bound + _PATH_BOUND_TOL)
                  and (res_t <= 10.0 * res_src + ABS_TOL))
            all_ok = all_ok and ok
            rows.append({"t": t, "d_star": d_t, "commutation": res_t,
                         "increment": step, "ok": bool(ok)})
            prev = cur
        return {
            "r": self.r,
            "source_d_star": d_src,
            "bound": bound,
            "source_commutation": res_src,
            "samples": rows,
            "holds": bool(all_ok),
            # no component is crashed; the benchmark reference pins both
            # keys, which go at its next regeneration (ROADMAP item 20)
            "crashed_components": 0,
            "crashed_mass": 0,
        }


def example_two_component_action() -> ActionTuple:
    """Reference two-component commuting pair for the deformation demos.

    On (0, 1/2) the generators are chart-embedded flow maps of the same
    quadratic field with time ratio sqrt(2): a flowable component.  On
    (1/2, 1) they are the times 0.3 and 0.6 of that flow, i.e. h and h^2
    for h the time-0.3 map: a cyclic component.  The generators commute
    exactly by construction (same field on each component)."""
    X = moebius_field(2.0)
    ivs = [(0.0, 0.5), (0.5, 1.0)]
    g1 = ComponentwiseDiffeo(ivs, [FlowTime(X, 0.8), FlowTime(X, 0.3)])
    g2 = ComponentwiseDiffeo(
        ivs, [FlowTime(X, 0.8 * math.sqrt(2.0)), FlowTime(X, 0.6)])
    return ActionTuple(generators=(g1, g2))


def deform_action(t: ActionTuple, t_param: float, r: str = "1+ac",
                  cfg: ToleranceConfig = DEFAULT_CONFIG):
    """The deformed action at parameter t_param, with its certificate row."""
    path = DeformationPath(t, r=r, cfg=cfg)
    cert = path.certificate(ts=[0.0, t_param, 1.0])
    action = path.at(t_param)
    return action, cert


# ---------------------------------------------------------------------------
# finite-order normalization (circle actions with rational rotation 1/n)


@dataclass
class NormalFormReport:
    conjugacy: GridMap
    n: int
    junction_mismatches: tuple   # one-sided log-derivative gaps at k/n
    conjugation_residual: float  # sup |g(phi(x)) - phi(x + 1/n)| off the last cell


# the largest error allowed in each boundary condition of normalize_finite_order
_BOUNDARY_TOL = 1e-6


def normalize_finite_order(g: CircleDiffeo, n: int, psi=None,
                           cfg: ToleranceConfig = DEFAULT_CONFIG) -> NormalFormReport:
    """Conjugacy phi sending g to the normal form that equals the rotation by
    1/n away from the last cell [(n-1)/n, 1].

    phi = g^k o psi o R_{-k/n} on [k/n, (k+1)/n], extended step by step from a
    seed psi on the first cell (supplied in chart coordinates of [0, 1/n]).
    Requires the orbit of 0 to be {k/n}, g^n to be parabolic at 0, psi to be
    parabolic at 0 and to satisfy D(psi)(1/n) = Dg(0); these boundary
    conditions are exactly what makes the pieces glue in a C^1 way."""
    if getattr(g, "kind", None) != "circle":
        raise ValueError("normalize_finite_order applies to circle maps")
    if n < 2:
        raise ValueError("n must be >= 2")
    if psi is None:
        psi = identity()

    # preconditions, on the orbit g^k(0), k = 0..n, with log Dg^k(0)
    zero = np.zeros(1)
    orbit = list(_walk_words([_jet_step(g)], n + 1, (zero, zero)))
    orbit_err = max(abs(float(y[0]) - k / n) for k, (y, _) in enumerate(orbit))
    if orbit_err > _BOUNDARY_TOL:
        raise ValueError(f"orbit of 0 is not {{k/n}} (error {orbit_err:.3e})")
    ld_gn = float(orbit[n][1][0])
    if abs(ld_gn) > _BOUNDARY_TOL:
        raise ValueError(f"g^n is not parabolic at 0 (log Dg^n(0) = {ld_gn:.3e})")
    if abs(float(psi.log_deriv(np.array(0.0)))) > _BOUNDARY_TOL:
        raise ValueError("seed psi is not parabolic at 0")
    seam = float(psi.log_deriv(np.array(1.0))) - float(g.log_deriv(0.0))
    if abs(seam) > _BOUNDARY_TOL:
        raise ValueError(
            f"seed boundary derivative mismatch: D(psi)(1/n) differs from "
            f"Dg(0) by e^{seam:.3e}")

    # assemble phi on the uniform grid
    x = np.linspace(0.0, 1.0, cfg.grid_N + 1)
    k = np.minimum((x * n).astype(int), n - 1)
    u = np.clip(n * x - k, 0.0, 1.0)      # chart coordinate in [0, 1]
    val = psi.value(u) / n
    ld = np.asarray(psi.log_deriv(u), dtype=float)
    for j in range(n - 1):
        m = k > j
        if not np.any(m):
            break
        ld[m] += g.log_deriv(np.mod(val[m], 1.0))
        val[m] = g.value(val[m])
    disp = val - x
    disp[-1] = disp[0]
    ld[-1] = ld[0]
    phi = GridMap(x + disp, ld, "circle")

    # junction gluing: one-sided log-derivative gaps at the cell boundaries
    # k/n, k = 1..n-1: log Dpsi(1) + log Dg^{k-1}(1/n) from the left against
    # log Dpsi(0) + log Dg^k(0) from the right
    psi0 = float(psi.log_deriv(np.array(0.0)))
    psi1 = float(psi.log_deriv(np.array(1.0)))
    inner = _walk_words([_jet_step(g)], n - 1, (np.array([1.0 / n]), zero))
    mism = [abs((psi1 + float(ld_l[0])) - (psi0 + float(ld_r[0])))
            for (_, ld_l), (_, ld_r) in zip(inner, orbit[1:n])]

    # phi^-1 g phi = R_{1/n} away from the last cell, checked without
    # inverting: g(phi(x)) = phi(x + 1/n) on [0, (n-1)/n]
    probe = np.linspace(0.0, (n - 1) / n, 1025)
    resid = float(np.max(np.abs(g.value(phi.value(probe)) - phi.value(probe + 1.0 / n))))
    return NormalFormReport(phi, n, tuple(mism), resid)


def finite_order_structure(m: int, n: int) -> dict:
    """Structure report for a finite rotation subgroup generated by m/n:
    the image is cyclic of order n/gcd(m,n)."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    k = math.gcd(m, n) if m else n
    return {"gcd": k, "order": n // k, "generator": (m // k) % (n // k) if n // k else 0}
