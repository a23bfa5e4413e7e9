"""Asymptotic variation, Mather invariants, and cocycle drift.

V_inf(f) = lim var(log Df^n)/n  (subadditive, hence the limit exists and is
the infimum of the sequence).  The Mather invariant of a fixed-point-free
interval map compares the flows generated at the two ends; it is trivial
exactly when the map embeds in a C^1 flow of the closed interval.  The drift
of the affine-derivative cocycle c(f) = D^2f/Df in L^1 recovers V_inf.

The Mather sweep reads its one power f^k through diffeo.iterate, and V_inf
reads each schedule entry from the map's closed-form power where it has
one.  The orbits that accumulate log Df^n at several n (V_inf without a
closed form, the drift) and the cocycle box average psi_n over the words
g_d^{k_d} o ... o g_1^{k_1} walk through the one kernel diffeo._walk_words:
row starts depth first, k_1 outermost, then the g_d rows stacked in
batches that take n - 1 steps each; circle orbits walk the lift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .gridfn import ABS_TOL, DEFAULT_CONFIG, ToleranceConfig, variation
from .diffeo import (
    ActionTuple,
    GridMap,
    IntervalDiffeo,
    _jet_step,
    _walk_words,
    fixed_point_analysis,
    iterate,
)
from .szekeres import SzekeresField

__all__ = [
    "VarEstimate",
    "asymptotic_variation",
    "MatherInvariant",
    "mather_invariant",
    "mather_inequality_check",
    "coboundary_drift",
]


DEFAULT_SCHEDULE = (1, 2, 4, 8, 16, 32, 64, 128, 256)
# sweep cells of the fundamental interval in mather_invariant
_MATHER_SAMPLES = 1024


@dataclass(frozen=True)
class VarEstimate:
    pairs: tuple = dc_field(repr=False)   # (n, var(log Df^n)/n)
    limit: float            # monotone envelope extrapolation (min of var/n)
    uncertainty: float      # |last - second-to-last| along the schedule
    lower_bound: float      # |log Df(0)| + |log Df(1)| for interval maps


def _orbit_sample_points(f, n_max: int, base: int, circle: bool) -> np.ndarray:
    """Union of the forward iterates of a base grid: a dynamics-adapted
    sample set on which var(log Df^n) is measured."""
    x0 = np.linspace(0.0, 1.0, base + 1)
    pts = [x0]
    y = x0.copy()
    for _ in range(min(n_max, 64)):
        y = np.mod(f._value(y), 1.0) if circle else f._value(y)
        pts.append(y)
    return np.unique(np.concatenate(pts))


def asymptotic_variation(f, schedule=DEFAULT_SCHEDULE) -> VarEstimate:
    """var(log Df^n)/n along the schedule, with the subadditivity-backed
    monotone-envelope extrapolation (no model fitting)."""
    schedule = tuple(sorted(set(int(n) for n in schedule)))
    if not schedule or schedule[0] < 1:
        raise ValueError("schedule must contain positive integers")
    circle = f.kind == "circle"
    n_max = schedule[-1]
    pts = _orbit_sample_points(f, n_max, 256, circle)
    # log Df^n at each schedule entry: from the closed-form powers where f
    # has them, else read off one walk of the orbit
    powers = [f._iterate_fast(n) for n in schedule]
    if any(p is None for p in powers):
        orbit = _walk_words([_jet_step(f)], n_max + 1, (pts, np.zeros_like(pts)))
        lds = (acc for step, (_, acc) in enumerate(orbit) if step in schedule)
    else:
        lds = (p._log_deriv(pts) for p in powers)
    pairs = []
    for n, ld in zip(schedule, lds):
        if not np.all(np.isfinite(ld)):
            raise OverflowError(f"derivative accumulation blew up at n={n}")
        pairs.append((n, variation(ld, periodic=circle) / n))
    vals = [v for _, v in pairs]
    envelope = np.minimum.accumulate(vals)
    limit = float(envelope[-1])
    uncertainty = abs(vals[-1] - vals[-2]) if len(vals) >= 2 else math.inf
    if circle:
        lower = 0.0
    else:
        lower = abs(float(f.log_deriv(np.array(0.0)))) + abs(float(f.log_deriv(np.array(1.0))))
    return VarEstimate(tuple(pairs), limit, float(uncertainty), float(lower))


# ---------------------------------------------------------------------------
# Mather invariant


@dataclass(frozen=True)
class MatherInvariant:
    circle_map: GridMap
    var_logDM: float
    m: int
    n: int
    seam_residual: float    # |M(1) - M(0) - 1| before seam enforcement
    inverted: bool          # True when f > id and f^{-1} was analyzed


def _check_no_interior_fixed_point(f: IntervalDiffeo):
    rep = fixed_point_analysis(ActionTuple((f,)))
    interior = [p for p in rep.points if 1e-9 < p.location < 1 - 1e-9]
    interior += [iv for iv in rep.global_fixed_intervals
                 if iv[1] > 1e-9 and iv[0] < 1 - 1e-9]
    if interior:
        raise ValueError(f"map has interior fixed structure: {interior}")


def mather_invariant(f: IntervalDiffeo, cfg: ToleranceConfig = DEFAULT_CONFIG,
                     m: int = 8, n: int = 8) -> MatherInvariant:
    """The circle map M_f = T_{-m} o psi1^{-1} o f^{m+n} o psi0 o T_{-n}
    comparing the two end flows (anchors a = b = 1/2).

    var(log DM_f) is computed by sweeping one fundamental interval with the
    direct derivative formula

        DM_f(t) = X(p) Df^k(p) / Y(f^k p),   p = psi0(t - n),  k = m + n,

    which is parametrization-invariant (no time-coordinate error enters)."""
    inverted = False
    half = np.array(0.5)
    if float(f.value(half)) == 0.5:
        raise ValueError("f fixes the anchor 1/2; not fixed-point-free")
    if float(f.value(half)) > 0.5:
        f = f.inverse_map()
        inverted = True
    _check_no_interior_fixed_point(f)

    X = SzekeresField(f, cfg)
    # r o f^{-1} o r, r(x) = 1 - x: the contraction seen from the other
    # end, built structurally so that closed-form reflections keep full
    # relative precision in the tails
    g = f.inverse_map().reflect()
    Xg = SzekeresField(g, cfg)
    k = m + n

    # sweep p over the fundamental interval [f(x0), x0], x0 = f^{-n}(1/2)
    x0 = float(iterate(f, -n).value(half))
    fx0 = float(f.value(np.array(x0)))
    ps = np.linspace(fx0, x0, _MATHER_SAMPLES + 1)
    q, acc = iterate(f, k)._jet(ps)  # q = f^k(p), deep near 0
    V = np.log(-X.X(ps)) + acc - np.log(-Xg.X(1.0 - q))
    var_logDM = variation(V)

    # the circle map itself, via the time coordinates of both flows
    tgrid = np.linspace(0.0, 1.0, 513)
    p_t = X.tau_inv(tgrid)                       # psi0(t), in [f(1/2), 1/2]
    z = iterate(f, m)._value(p_t)
    M = -Xg.tau(1.0 - z) - m
    seam = float(abs((M[-1] - M[0]) - 1.0))
    disp = M - tgrid
    disp[-1] = disp[0]
    # log DM from centered differences of the periodic displacement
    s = disp[:-1]
    d = (np.roll(s, -1) - np.roll(s, 1)) * (len(s) / 2.0)
    circle_map = GridMap(tgrid + disp, np.log1p(np.append(d, d[0])), "circle")
    return MatherInvariant(circle_map, var_logDM, m, n, seam, inverted)


def mather_inequality_check(f: IntervalDiffeo,
                            cfg: ToleranceConfig = DEFAULT_CONFIG) -> dict:
    """| var(log DM_f) - V_inf(f) |  <=  |log Df(0)| + |log Df(1)|."""
    mi = mather_invariant(f, cfg)
    ve = asymptotic_variation(f)
    bound = ve.lower_bound
    gap = abs(mi.var_logDM - ve.limit)
    slack = bound - gap
    return {
        "var_logDM": mi.var_logDM,
        "vinf": ve.limit,
        "vinf_uncertainty": ve.uncertainty,
        "bound": bound,
        "slack": slack,
        "holds": bool(slack >= -(ve.uncertainty + ABS_TOL + 1e-4)),
    }


# ---------------------------------------------------------------------------
# cocycle drift


def _l1_norm(samples: np.ndarray, x: np.ndarray) -> float:
    return float(np.trapezoid(np.abs(samples), x))


def _graded_grid(N: int, breakpoints=(0.0, 1.0)) -> np.ndarray:
    """[0,1] grid with geometric refinement into a layer around every
    breakpoint (common fixed points of the action), where iterated
    affine-derivative cocycles concentrate with ~1/dist densities down to
    the multiplier scale."""
    bp = sorted(set(float(b) for b in breakpoints) | {0.0, 1.0})
    cells = list(zip(bp[:-1], bp[1:]))
    m = max(N // (2 * len(cells)), 16)
    left = np.geomspace(1e-13, 0.5, m)
    unit = np.concatenate(([0.0], left, (1.0 - left[::-1])[1:], [1.0]))
    pieces = [np.array([0.0])]
    for a, b in cells:
        pieces.append(a + (b - a) * unit[1:])
    return np.unique(np.concatenate(pieces))


def coboundary_drift(t: ActionTuple, f_index: int = 0, n: int = 32,
                     cfg: ToleranceConfig = DEFAULT_CONFIG) -> dict:
    """Drift of the affine-derivative cocycle c(f) = D^2f/Df in L^1, and the
    coboundary defect of the box average

        psi_n = (1/n^d) sum_{g in B(n)} c(g),
        defect = || c(f) - (psi_n - U(f) psi_n) ||_{L1},

    with U(f)(phi) = (phi o f) Df.  The defect bounds the drift from above
    in the limit; for a single generator the box sum telescopes and the
    defect equals ||c(f^n)||/n exactly.  Words extend the generators'
    cocycles by the cocycle relation c(f g) = c(g) + U(g) c(f)."""
    if n < 1:
        # the doubling schedule of the drift estimate below never ends at n <= 0
        raise ValueError("n must be >= 1")
    gens = t.generators
    N = min(cfg.grid_N, 2048)
    bps = {0.0, 1.0}
    for g in gens:
        for a, b in getattr(g, "intervals", ()):
            bps.update((float(a), float(b)))
    x = _graded_grid(N, sorted(bps))

    def cocycle_step(i):
        # left-multiply by f_i: c(f_i w) = c(w) + (c(f_i) o w) Dw, on the
        # word state (value, log-derivative, cocycle), all sampled at x
        def step(state):
            y, ld, c = state
            c = c + gens[i]._affine_deriv(y) * np.exp(ld)
            y, ld_i = gens[i]._jet(y)
            return y, ld + ld_i, c
        return step

    zero = np.zeros_like(x)
    psi = np.zeros_like(x)
    steps = [cocycle_step(i) for i in range(len(gens))]
    for _, _, c in _walk_words(steps, n, (x, zero, zero)):
        psi += c
    psi /= n**len(gens)

    f = gens[f_index]
    cf = f.affine_deriv(x)
    fx = np.clip(f.value(x), 0.0, 1.0)
    u_psi = np.interp(fx, x, psi) * f.deriv(x)
    defect = _l1_norm(cf - (psi - u_psi), x)

    # direct drift estimate a_n/n, a_m = ||c(f^m)||_L1.  c(f^m) = (log Df^m)',
    # so a_m is the total variation of the accumulated log-derivative --
    # computable from node values alone, immune to the 2^m spike at
    # repelling ends that no fixed grid can resolve in x.
    # a_m is subadditive, so a_m/m converges to the drift from above and may
    # still overshoot at finite m; the orbit is a single vectorized
    # iteration, so burn in well past the box size, and the last doubling
    # increment, which removes the O(1) offset, is the estimate the defect
    # is tested against.
    m_max = max(8 * n, 512)
    marks = []
    m = n
    while m <= m_max:
        marks.append(m)
        m *= 2
    orbit = _walk_words([_jet_step(f)], marks[-1] + 1, (x, zero))
    a = {m: variation(ld) for m, (_, ld) in enumerate(orbit) if m in marks}
    drift = a[n] / n
    drift_refined = (a[marks[-1]] - a[marks[-2]]) / (marks[-1] - marks[-2]) \
        if len(marks) > 1 else drift

    tol = 10.0 * max(ABS_TOL, 1.0 / N)
    return {
        "n": n,
        "defect": defect,
        "drift": drift,
        "drift_refined": drift_refined,
        "defect_minus_drift": defect - drift,
        "lower_bound_holds": bool(defect >= drift_refined - tol),
    }
