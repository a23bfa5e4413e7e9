"""Canonical deformation machinery for commuting tuples.

Averaging conjugacies (Herman box averages, geometric-mean conjugacies),
interpolation of conjugated actions along t * log D(conjugacy), flow
regularization (the averaged conjugacy that straightens a C^1 flow so that
the field derivative equals log Df in the new coordinate), classification of
a commuting interval tuple into per-component cyclic/flowable pieces, and the
glued deformation path from an action to the trivial one, with numeric
certificates at every sampled parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .gridfn import DEFAULT_CONFIG, GridFunction, ToleranceConfig
from .diffeo import (
    ActionTuple,
    CircleDiffeo,
    CircleGrid,
    Composition,
    GridLogDeriv,
    IntervalDiffeo,
    Moebius,
    Rotation,
    circle_compose,
    circle_inverse,
    commutator_residual,
    compose,
    fixed_point_analysis,
    identity,
    inverse,
    iterate,
    metric,
    rotation_number,
    _table_inverse,
)
from .szekeres import (
    FlowTime,
    SzekeresField,
    VectorField1D,
    moebius_field,
    szekeres_field,
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
    "PushforwardField",
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


_WORD_BUDGET = 10**6


# ---------------------------------------------------------------------------
# chart wrappers


class _Restricted(IntervalDiffeo):
    """The restriction of f to an invariant interval [a, b], rescaled to the
    chart [0, 1]."""

    def __init__(self, f: IntervalDiffeo, a: float, b: float):
        if not (0.0 <= a < b <= 1.0):
            raise ValueError("need 0 <= a < b <= 1")
        self.f = f
        self.a = float(a)
        self.b = float(b)
        self.is_grid_backed = f.is_grid_backed

    def _up(self, u):
        return self.a + (self.b - self.a) * u

    def value(self, u):
        u = self._check_domain(u)
        y = (self.f.value(self._up(u)) - self.a) / (self.b - self.a)
        return np.clip(y, 0.0, 1.0)

    def log_deriv(self, u):
        u = self._check_domain(u)
        return self.f.log_deriv(self._up(u))

    def affine_deriv(self, u):
        u = self._check_domain(u)
        return (self.b - self.a) * self.f.affine_deriv(self._up(u))

    def inverse_map(self):
        return _Restricted(inverse(self.f), self.a, self.b)

    def __repr__(self):
        return f"_Restricted({self.f!r}, {self.a}, {self.b})"


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
        self.is_grid_backed = any(c.is_grid_backed for c in self.charts)

    def _apply(self, x, fn):
        x = self._check_domain(x)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = fn(None, x, None)
        for (a, b), c in zip(self.intervals, self.charts):
            m = (x >= a) & (x <= b)
            if np.any(m):
                u = np.clip((x[m] - a) / (b - a), 0.0, 1.0)
                out[m] = fn((a, b), u, c)
        return out[0] if scalar else out

    def value(self, x):
        def fn(iv, u, c):
            if iv is None:
                return u.copy()
            a, b = iv
            return a + (b - a) * c.value(u)
        return self._apply(x, fn)

    def log_deriv(self, x):
        def fn(iv, u, c):
            if iv is None:
                return np.zeros_like(u)
            return c.log_deriv(u)
        return self._apply(x, fn)

    def affine_deriv(self, x):
        def fn(iv, u, c):
            if iv is None:
                return np.zeros_like(u)
            a, b = iv
            return c.affine_deriv(u) / (b - a)
        return self._apply(x, fn)

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


# ---------------------------------------------------------------------------
# box enumeration helper


def _box_reduce(gens, n, x, leaf, circle=False):
    """Depth-first walk of the box of words g_1^{k_1}...g_m^{k_m}, 0 <= k < n,
    calling leaf(y, ld) with the word values and word log-derivatives at x."""

    def rec(i, y, ld):
        if i == len(gens):
            leaf(y, ld)
            return
        yy, ldd = y, ld
        g = gens[i]
        for k in range(n):
            rec(i + 1, yy, ldd)
            if k < n - 1:
                ldd = ldd + g.log_deriv(yy)
                yy = g.lift(yy) if circle else g.value(yy)

    rec(0, x.copy(), np.zeros_like(x))


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
    if n**t.d > _WORD_BUDGET:
        raise ValueError(f"word budget n^d <= {_WORD_BUDGET:.0e} exceeded")

    rhos = tuple(rotation_number(g, cfg).value for g in t.generators)
    if n == 1:
        phi = Rotation(0.0)
        conjs = t.generators
    else:
        x = np.linspace(0.0, 1.0, cfg.grid_N + 1)
        total = np.zeros_like(x)
        total_d = np.zeros_like(x)
        count = 0

        def leaf(y, ld):
            nonlocal total, total_d, count
            total += y
            total_d += np.exp(ld)
            count += 1

        _box_reduce(t.generators, n, x, leaf, circle=True)
        lift = total / count
        logd = np.log(total_d / count)
        phi = CircleGrid(GridFunction(lift - x), GridFunction(logd), cfg)
        phinv = circle_inverse(phi)
        conjs = tuple(circle_compose(phi, circle_compose(g, phinv))
                      for g in t.generators)

    probes = np.linspace(0.0, 1.0, 1025)
    dists = []
    for g, rho in zip(conjs, rhos):
        dd = g.lift(probes) - probes - rho
        dd = dd - np.round(np.mean(dd))
        dists.append(float(np.max(np.abs(dd))))
    return HermanReport(phi, ActionTuple(tuple(conjs)), n, rhos, tuple(dists))


# ---------------------------------------------------------------------------
# geometric-mean conjugacy


def _circle_from_log_deriv(psi: np.ndarray, cfg: ToleranceConfig) -> CircleGrid:
    """Circle diffeomorphism fixing 0 whose log-derivative interpolates the
    periodic samples psi (normalized so the total mass is 1)."""
    N = len(psi) - 1
    h = 1.0 / N
    e = np.exp(psi)
    z = float(np.trapezoid(e, dx=h))
    psi = psi - math.log(z)
    e = np.exp(psi)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (e[1:] + e[:-1]) * h)])
    cum /= cum[-1]
    disp = cum - np.linspace(0.0, 1.0, N + 1)
    disp[-1] = disp[0]
    s = psi.copy()
    s[-1] = s[0]
    return CircleGrid(GridFunction(disp), GridFunction(s), cfg)


@dataclass
class GeometricMeanReport:
    conjugacy: object
    action: ActionTuple
    n: int
    vars_conjugate: tuple    # var(log D(phi f_i phi^-1)) per generator
    var_bounds: tuple        # var(log Df_i^n)/n per generator
    slacks: tuple            # bound + tol - var, all >= 0


def geometric_mean_conjugacy(t: ActionTuple, extra_generator=None, n: int = 8,
                             cfg: ToleranceConfig = DEFAULT_CONFIG,
                             tol: float = 1e-6) -> GeometricMeanReport:
    """Conjugacy phi_n with D(phi_n) = normalized geometric mean of the word
    derivatives over the box; shrinks var(log D) of each generator to at most
    var(log Df_i^n)/n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    circle = t.kind == "circle"
    gens = list(t.generators)
    if extra_generator is not None:
        if getattr(extra_generator, "kind", "interval") != t.kind:
            raise ValueError("extra generator must match the tuple kind")
        gens = [extra_generator] + gens
    if n ** len(gens) > _WORD_BUDGET:
        raise ValueError(f"word budget n^m <= {_WORD_BUDGET:.0e} exceeded")

    x = np.linspace(0.0, 1.0, cfg.grid_N + 1)

    def mean_log_deriv(pts):
        total = np.zeros_like(pts)
        count = 0

        def leaf(y, ld):
            nonlocal total, count
            total += ld
            count += 1

        _box_reduce(gens, n, pts, leaf, circle=circle)
        if not np.all(np.isfinite(total)):
            raise OverflowError("word derivative accumulation left the "
                                "representable range")
        return total / count

    psi = mean_log_deriv(x)
    if circle:
        phi = _circle_from_log_deriv(psi, cfg)
        phinv = circle_inverse(phi)
        conjs = tuple(circle_compose(phi, circle_compose(g, phinv))
                      for g in t.generators)
    else:
        phi = GridLogDeriv(GridFunction(psi))
        phinv = phi.inverse_map()
        conjs = tuple(compose(phi, compose(g, phinv)) for g in t.generators)

    # certified variation drop, measured parametrization-invariantly:
    # log D(phi f phi^-1) at phi(x) is u(x) = Psi(f x) + log Df(x) - Psi(x)
    # with Psi the exact box mean (no interpolation error enters the check)
    vars_c, bounds, slacks = [], [], []
    for g in t.generators:
        fx = g.lift(x) if circle else g.value(x)
        u = mean_log_deriv(np.mod(fx, 1.0) if circle else fx) \
            + g.log_deriv(x) - psi
        var_u = float(np.abs(np.diff(u)).sum())
        if circle:
            var_u += float(abs(u[-1] - u[0]))
        acc = np.zeros_like(x)
        y = x.copy()
        for _ in range(n):
            acc = acc + g.log_deriv(y)
            y = np.mod(g.lift(y), 1.0) if circle else g.value(y)
        bound = float(np.abs(np.diff(acc)).sum())
        if circle:
            bound += float(abs(acc[-1] - acc[0]))
        bound /= n
        slack = bound + tol - var_u
        if slack < 0:
            raise RuntimeError(
                f"variation bound violated: var(conj)={var_u:.6e} exceeds "
                f"var(log Df^n)/n={bound:.6e} + {tol:.0e}"
            )
        vars_c.append(var_u)
        bounds.append(bound)
        slacks.append(slack)
    return GeometricMeanReport(phi, ActionTuple(conjs), n,
                               tuple(vars_c), tuple(bounds), tuple(slacks))


# ---------------------------------------------------------------------------
# interpolation along t log D(phi)


def _id_like(kind: str):
    return Rotation(0.0) if kind == "circle" else identity()


def _scaled_conjugacy(phi, s: float, kind: str, cfg: ToleranceConfig):
    """The conjugacy with log-derivative s * log D(phi) (normalized)."""
    if s <= 0.0:
        return _id_like(kind)
    if s >= 1.0:
        return phi
    x = np.linspace(0.0, 1.0, cfg.grid_N + 1)
    ld = s * np.asarray(phi.log_deriv(x), dtype=float)
    if kind == "circle":
        return _circle_from_log_deriv(ld, cfg)
    return GridLogDeriv(GridFunction(ld))


def _conjugate(phi, g, kind: str):
    if kind == "circle":
        return circle_compose(phi, circle_compose(g, circle_inverse(phi)))
    return compose(phi, compose(g, inverse(phi)))


@dataclass
class InterpolationStep:
    action: ActionTuple
    conjugacy: object
    t: float
    certificate: dict


def interpolation_path(rho0: ActionTuple, rho1: ActionTuple, phi, t: float,
                       r: str = "1+ac", cfg: ToleranceConfig = DEFAULT_CONFIG,
                       tol: float = 1e-3,
                       conjugacy_tol: float = 1e-2) -> InterpolationStep:
    """The action phi_t rho0 phi_t^-1 with log D(phi_t) = t log D(phi) - c_t.

    Requires rho1 = phi rho0 phi^-1 within conjugacy_tol; the certificate
    checks d*_r(rho_t, id) <= max(d*_r(rho0, id), d*_r(rho1, id)) + tol."""
    if r not in ("1+ac", "2"):
        raise ValueError("r must be '1+ac' or '2'")
    if not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    if rho0.d != rho1.d or rho0.kind != rho1.kind:
        raise ValueError("actions must have the same shape")
    kind = rho0.kind

    res = max(
        metric(b, _conjugate(phi, a, kind), "1", cfg=cfg)
        for a, b in zip(rho0.generators, rho1.generators)
    )
    if res > conjugacy_tol:
        raise ValueError(f"phi is not a conjugacy from rho0 to rho1 "
                         f"(residual {res:.3e} > {conjugacy_tol:.0e})")

    if t == 0.0:
        phi_t = _id_like(kind)
        action = rho0
    elif t == 1.0:
        phi_t = phi
        action = rho1
    else:
        phi_t = _scaled_conjugacy(phi, t, kind, cfg)
        action = ActionTuple(tuple(_conjugate(phi_t, g, kind)
                                   for g in rho0.generators))

    ident = _id_like(kind)
    d0 = max(metric(g, ident, r, starred=True, cfg=cfg) for g in rho0.generators)
    d1 = max(metric(g, ident, r, starred=True, cfg=cfg) for g in rho1.generators)
    dt = max(metric(g, ident, r, starred=True, cfg=cfg) for g in action.generators)
    bound = max(d0, d1)

    # Lipschitz modulus of the conjugacy family in d_1
    delta = 1.0 / 64
    t2 = t + delta if t + delta <= 1.0 else t - delta
    phi_t2 = _scaled_conjugacy(phi, t2, kind, cfg)
    L = metric(phi_t, phi_t2, "1", cfg=cfg) / delta

    cert = {
        "r": r,
        "t": t,
        "conjugacy_residual": res,
        "d_star_t": dt,
        "d_star_endpoints": (d0, d1),
        "bound": bound,
        "holds": bool(dt <= bound + tol),
        "lipschitz_L": L,
    }
    if r == "2":
        d1_phi = metric(phi_t, ident, "1", starred=True, cfg=cfg)
        cert["d1_star_phi_t"] = d1_phi
        cert["inflation_ratio"] = dt / bound if bound > 0 else 1.0
    return InterpolationStep(action, phi_t, t, cert)


# ---------------------------------------------------------------------------
# flow regularization


class PushforwardField(VectorField1D):
    """The field phi_* X: X~(y) = Dphi(u) X(u) at u = phi^-1(y), with the
    time change pulled back through phi (flow equivariance is exact)."""

    def __init__(self, base: VectorField1D, phi: IntervalDiffeo):
        self.base = base
        self.phi = phi
        self.phinv = inverse(phi)

    def X(self, y):
        u = self.phinv.value(np.asarray(y, dtype=float))
        return self.phi.deriv(u) * self.base.X(u)

    def edge_rates(self):
        return self.base.edge_rates()

    def tau(self, y):
        return self.base.tau(self.phinv.value(np.asarray(y, dtype=float)))

    def tau_inv(self, s):
        return self.phi.value(self.base.tau_inv(s))

    def __repr__(self):
        return f"PushforwardField({self.base!r})"


class _RegularizedField(PushforwardField):
    """Pushforward by the averaging conjugacy; its derivative is exactly the
    log-derivative of the original time-1 map in the new coordinate."""

    def __init__(self, base, phi, f1):
        super().__init__(base, phi)
        self.f1 = f1

    def DX(self, y):
        u = self.phinv.value(np.asarray(y, dtype=float))
        return self.f1.log_deriv(u)


class _SmoothConjugacy(IntervalDiffeo):
    """Interval diffeomorphism built from log-derivative samples with a C^1
    monotone (PCHIP) interpolant, so that finite differences of conjugated
    fields do not see the slope kinks of piecewise-linear grids."""

    def __init__(self, nodes: np.ndarray, logd: np.ndarray):
        from scipy.interpolate import PchipInterpolator
        ld = PchipInterpolator(nodes, np.asarray(logd, dtype=float))
        dense = np.linspace(0.0, 1.0, (1 << 16) + 1)
        dv = np.exp(ld(dense))
        vals = np.concatenate(([0.0], np.cumsum((dv[1:] + dv[:-1]) * 0.5 * np.diff(dense))))
        c = math.log(vals[-1])
        vals /= vals[-1]
        self._ld = PchipInterpolator(nodes, np.asarray(logd, dtype=float) - c)
        self._dld = self._ld.derivative()
        self._dense = dense
        self._vals = vals
        self._val = PchipInterpolator(dense, vals)
        self._dval = self._val.derivative()

    def value(self, x):
        x = self._check_domain(x)
        return np.clip(self._val(x), 0.0, 1.0)

    def inverse_value(self, y):
        # the dense table read backwards, polished by Newton on the PCHIP
        # itself (its derivative is not exactly exp(log_deriv))
        return _table_inverse(y, self._dense, self._vals, self._val, self._dval)

    def log_deriv(self, x):
        x = self._check_domain(x)
        return self._ld(x)

    def affine_deriv(self, x):
        x = self._check_domain(x)
        return self._dld(x)

    def __repr__(self):
        return "_SmoothConjugacy()"


@dataclass
class RegularizedFlow:
    conjugacy: IntervalDiffeo
    field: PushforwardField
    time_one: IntervalDiffeo
    checks: dict
    conjugated_extra: object
    extra_checks: dict | None


def regularize_flow(X, extra=None, r: str = "1+ac",
                    cfg: ToleranceConfig = DEFAULT_CONFIG,
                    s_steps: int = 64) -> RegularizedFlow:
    """Straighten a contraction flow by the averaging conjugacy

        log D(phi)(x) = int_0^1 log Df^s(x) ds - c,   phi(0) = 0,

    after which the field derivative equals log Df o phi^-1 and
    var(DX~) = var(log Df)."""
    if r not in ("1+ac", "2"):
        raise ValueError("r must be '1+ac' or '2'")
    if s_steps < 64:
        raise ValueError("need at least 64 flow evaluations in s")
    if isinstance(X, IntervalDiffeo):
        X = szekeres_field(X, cfg)
    f1 = FlowTime(X, 1.0)

    xg = np.linspace(0.0, 1.0, cfg.grid_N + 1)
    svals = np.linspace(0.0, 1.0, s_steps + 1)
    acc = np.zeros_like(xg)
    # composite Simpson in s (log Df^0 = 0, so s = 0 drops out)
    for i, s in enumerate(svals):
        if i == 0 or i == s_steps:
            w = 1.0
        elif i % 2 == 1:
            w = 4.0
        else:
            w = 2.0
        if s > 0.0:
            acc += w * FlowTime(X, float(s)).log_deriv(xg)
    acc /= 3.0 * s_steps
    # endpoints: log Df^s(p) = s * log Df(p) at a fixed endpoint, so the
    # s-average is half the edge rate; fill any remaining non-finite nodes
    # (flow evaluation degenerates at the very ends) by interpolation
    e0, e1 = X.edge_rates()
    acc[0] = 0.5 * e0
    acc[-1] = 0.5 * e1
    bad = ~np.isfinite(acc)
    if np.any(bad):
        acc[bad] = np.interp(xg[bad], xg[~bad], acc[~bad])
    phi = _SmoothConjugacy(xg, acc)
    Xt = _RegularizedField(X, phi, f1)

    # certification of the two structural identities
    probes = np.linspace(0.05, 0.95, 181)
    h = 1e-5
    fd = (Xt.X(probes + h) - Xt.X(probes - h)) / (2 * h)
    deriv_err = float(np.max(np.abs(fd - Xt.DX(probes))))
    ld = f1.log_deriv(xg)
    var_logdf = float(np.abs(np.diff(ld)).sum())
    dxt = Xt.DX(xg)
    var_dxt = float(np.abs(np.diff(dxt)).sum())
    checks = {
        "deriv_identity_max_err": deriv_err,
        "deriv_identity_ok": bool(deriv_err <= 1e-5),
        "var_DX": var_dxt,
        "var_logDf": var_logdf,
        "var_ok": bool(abs(var_dxt - var_logdf)
                       <= max(cfg.rel_tol * max(1.0, var_logdf), 1e-6)),
    }
    if r == "2":
        d2 = np.gradient(dxt, 1.0 / cfg.grid_N)
        d2_bound = metric(f1, identity(), "2", starred=True, cfg=cfg)
        checks["d2_norm"] = float(np.max(np.abs(d2)))
        checks["d2_bound"] = d2_bound

    conj_extra = None
    extra_checks = None
    if extra is not None:
        conj_extra = _conjugate(phi, extra, "interval")
        u = phi.log_deriv(extra.value(xg)) + extra.log_deriv(xg) - phi.log_deriv(xg)
        var_conj = float(np.abs(np.diff(u)).sum())
        var_orig = float(np.abs(np.diff(extra.log_deriv(xg))).sum())
        extra_checks = {
            "var_conjugate": var_conj,
            "var_original": var_orig,
            "ok": bool(var_conj <= var_orig + 1e-6),
        }
    return RegularizedFlow(phi, Xt, FlowTime(Xt, 1.0), checks, conj_extra, extra_checks)


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
    kind = getattr(g, "kind", "interval")
    if t == 0.0:
        return g
    if t == 1.0:
        return _id_like(kind)
    x = np.linspace(0.0, 1.0, cfg.grid_N + 1)
    ld = (1.0 - t) * np.asarray(g.log_deriv(x), dtype=float)
    if kind == "circle":
        return _circle_from_log_deriv(ld, cfg)
    return GridLogDeriv(GridFunction(ld))


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
    fixed_report: object


def classify_action(t: ActionTuple, cfg: ToleranceConfig = DEFAULT_CONFIG,
                    denominator_cap: int = 10**4,
                    residual_tol: float = 1e-9) -> ComponentDecomposition:
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
        charts = tuple(_Restricted(g, a, b) for g in t.generators)
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
        X = SzekeresField(contraction, cfg, anchor=0.5)

        anchors = (0.35, 0.5, 0.65)
        alphas = []
        for c, s in zip(charts, signs):
            if s == 0:
                alphas.append(0.0)
                continue
            vals = []
            for p in anchors:
                q = float(c.value(np.array(p)))
                vals.append(float(X.tau(np.array(q))) - float(X.tau(np.array(p))))
            vals = sorted(vals)
            alpha = vals[len(vals) // 2]
            if max(vals) - min(vals) > 1e-5:
                warnings.append(
                    f"translation time spread {max(vals) - min(vals):.2e} "
                    "across anchors (commutation is only approximate)")
            alphas.append(alpha)

        verdicts, fracs = [], []
        for alpha in alphas:
            frac, verdict, _ = _rational_verdict(alpha, denominator_cap, residual_tol)
            verdicts.append(verdict)
            fracs.append(frac)

        if all(v == "rational" for v in verdicts):
            nonzero = [f for f in fracs if f != 0]
            L = 1
            for f in nonzero:
                L = L * f.denominator // math.gcd(L, f.denominator)
            ints = [int(f * L) for f in fracs]
            g0 = 0
            for k in ints:
                g0 = math.gcd(g0, abs(k))
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


class DeformationPath:
    """t in [0,1] -> ActionTuple, from the source action to the trivial one.

    First half: conjugate by the scaled averaging conjugacy of each component
    (flow-straightening or geometric-mean, by tag).  Second half: shrink --
    flow times rescaled by (1-s) on flowable components, the common generator
    deformed log-linearly (powers following the exponents) on cyclic ones.
    """

    def __init__(self, source: ActionTuple, r: str = "1+ac",
                 cfg: ToleranceConfig = DEFAULT_CONFIG,
                 eps_crash: float = 1e-6, max_components: int = 16,
                 cyclic_n_cap: int = 32):
        if r not in ("1+ac", "2"):
            raise ValueError("r must be '1+ac' or '2'")
        self.source = source
        self.r = r
        self.cfg = cfg
        self.decomp = classify_action(source, cfg)
        self._cache = {}
        self._llcache = {}

        active = [c for c in self.decomp.components if c.tag != "trivial"]
        self.crashed = ()
        if r == "2" and len(active) > max_components:
            sized = sorted(
                active,
                key=lambda c: metric(
                    ComponentwiseDiffeo([c.interval], [c.charts[0]]),
                    identity(), "2", starred=True, cfg=cfg),
            )
            self.crashed = tuple(sized[: len(active) - max_components])
            active = [c for c in active if c not in self.crashed]
        self.plans = []
        for c in active:
            if c.tag == "flowable":
                reg = regularize_flow(c.field, r=r, cfg=cfg)
                self.plans.append(("flowable", c, reg.conjugacy, reg.field))
            else:
                h = c.generator
                vinf = asymptotic_variation(h, schedule=(1, 2, 4, 8, 16), cfg=cfg)
                target = 2.0 * max(vinf.limit, 1e-12)
                chosen = None
                nn = 2
                while nn <= cyclic_n_cap:
                    gm = geometric_mean_conjugacy(ActionTuple((h,)), n=nn, cfg=cfg)
                    if gm.vars_conjugate[0] <= target:
                        chosen = gm
                        break
                    nn *= 2
                if chosen is None:
                    chosen = gm
                h_conj = compose(chosen.conjugacy,
                                 compose(h, inverse(chosen.conjugacy)))
                self.plans.append(("cyclic", c, chosen.conjugacy, h_conj))

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
                    phi_s = _scaled_conjugacy(phi, s, "interval", self.cfg)
                    for i, ch in enumerate(c.charts):
                        per_gen[i].append(_conjugate(phi_s, ch, "interval"))
                else:
                    s = 2.0 * t - 1.0
                    if tag == "flowable":
                        for i, time in enumerate(c.times):
                            tt = time * (1.0 - s)
                            per_gen[i].append(identity() if tt == 0.0
                                              else FlowTime(obj, tt))
                    else:
                        key = (id(obj), s)
                        h_s = self._llcache.get(key)
                        if h_s is None:
                            h_s = log_linear_deform(obj, s, self.cfg)
                            self._llcache[key] = h_s
                        for i, m in enumerate(c.exponents):
                            per_gen[i].append(identity() if m == 0
                                              else iterate(h_s, m))
            out = ActionTuple(tuple(
                ComponentwiseDiffeo(intervals, charts) if intervals else identity()
                for charts in per_gen))
        self._cache[t] = out
        return out

    # -- certificates -------------------------------------------------------
    def certificate(self, ts=None, tol: float = 1e-3) -> dict:
        if ts is None:
            ts = [k / 10.0 for k in range(11)]
        ts = sorted(set(float(v) for v in ts))
        ident = identity()
        src = self.source
        d_src = max(metric(g, ident, self.r, starred=True, cfg=self.cfg)
                    for g in src.generators)
        res_src = commutator_residual(src, self.cfg)
        bound = 2.0 * d_src
        rows = []
        prev = None
        all_ok = True
        for t in ts:
            act = self.at(t)
            d_t = max(metric(g, ident, self.r, starred=True, cfg=self.cfg)
                      for g in act.generators)
            res_t = commutator_residual(act, self.cfg)
            step = (max(metric(g, h, self.r, cfg=self.cfg)
                        for g, h in zip(act.generators, prev[1].generators))
                    if prev is not None else 0.0)
            ok = (d_t <= bound + tol) and (res_t <= 10.0 * res_src + self.cfg.abs_tol)
            all_ok = all_ok and ok
            rows.append({"t": t, "d_star": d_t, "commutation": res_t,
                         "increment": step, "ok": bool(ok)})
            prev = (t, act)
        crashed_mass = sum(
            metric(ComponentwiseDiffeo([c.interval], [ch]), ident,
                   self.r, starred=True, cfg=self.cfg)
            for c in self.crashed for ch in c.charts)
        return {
            "r": self.r,
            "source_d_star": d_src,
            "bound": bound,
            "source_commutation": res_src,
            "samples": rows,
            "holds": bool(all_ok),
            "crashed_components": len(self.crashed),
            "crashed_mass": crashed_mass,
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
                  cfg: ToleranceConfig = DEFAULT_CONFIG,
                  path: DeformationPath | None = None):
    """The deformed action at parameter t_param, with its certificate row."""
    if path is None:
        path = DeformationPath(t, r=r, cfg=cfg)
    cert = path.certificate(ts=[0.0, t_param, 1.0])
    action = path.at(t_param)
    return action, cert


# ---------------------------------------------------------------------------
# finite-order normalization (circle actions with rational rotation 1/n)


@dataclass
class NormalFormReport:
    conjugacy: CircleGrid
    n: int
    junction_mismatches: tuple   # one-sided log-derivative gaps at k/n
    conjugation_residual: float  # sup |g(phi(x)) - phi(x + 1/n)| off the last cell


def normalize_finite_order(g: CircleDiffeo, n: int, psi=None,
                           cfg: ToleranceConfig = DEFAULT_CONFIG,
                           boundary_tol: float = 1e-6) -> NormalFormReport:
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

    # preconditions
    orbit_err = 0.0
    y = 0.0
    for k in range(1, n + 1):
        y = float(g.lift(y))
        orbit_err = max(orbit_err, abs(y - k / n))
    if orbit_err > boundary_tol:
        raise ValueError(f"orbit of 0 is not {{k/n}} (error {orbit_err:.3e})")
    ld_gn = 0.0
    y = 0.0
    for _ in range(n):
        ld_gn += float(g.log_deriv(y))
        y = float(g.lift(y)) % 1.0
    if abs(ld_gn) > boundary_tol:
        raise ValueError(f"g^n is not parabolic at 0 (log Dg^n(0) = {ld_gn:.3e})")
    if abs(float(psi.log_deriv(np.array(0.0)))) > boundary_tol:
        raise ValueError("seed psi is not parabolic at 0")
    seam = float(psi.log_deriv(np.array(1.0))) - float(g.log_deriv(0.0))
    if abs(seam) > boundary_tol:
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
        val[m] = g.lift(val[m])
    disp = val - x
    disp[-1] = disp[0]
    lds = ld.copy()
    lds[-1] = lds[0]
    phi = CircleGrid(GridFunction(disp), GridFunction(lds), cfg)

    # junction gluing: one-sided log-derivative gaps at the cell boundaries
    mism = []
    for kk in range(1, n):
        left = float(psi.log_deriv(np.array(1.0)))
        yy = 1.0 / n
        for _ in range(kk - 1):
            left += float(g.log_deriv(yy % 1.0))
            yy = float(g.lift(yy))
        right = float(psi.log_deriv(np.array(0.0)))
        yy = 0.0
        for _ in range(kk):
            right += float(g.log_deriv(yy % 1.0))
            yy = float(g.lift(yy))
        mism.append(abs(left - right))

    # phi^-1 g phi = R_{1/n} away from the last cell, checked without
    # inverting: g(phi(x)) = phi(x + 1/n) on [0, (n-1)/n]
    probe = np.linspace(0.0, (n - 1) / n, 1025)
    resid = float(np.max(np.abs(g.lift(phi.lift(probe)) - phi.lift(probe + 1.0 / n))))
    return NormalFormReport(phi, n, tuple(mism), resid)


def finite_order_structure(m: int, n: int) -> dict:
    """Structure report for a finite rotation subgroup generated by m/n:
    the image is cyclic of order n/gcd(m,n)."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    k = math.gcd(m, n) if m else n
    return {"gcd": k, "order": n // k, "generator": (m // k) % (n // k) if n // k else 0}
