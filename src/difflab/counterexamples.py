"""Exact counterexample constructions with certified inequalities.

Three self-contained constructions, each demonstrating a failure mode of
regularity bookkeeping for one-dimensional maps:

* a devil's-staircase perturbation family ``phi_n`` built on an exact
  rational Cantor tree: ``phi_n -> id`` in the C^1 topology while the
  bounded-variation distortion of a fixed staircase potential stays >= 1/4;
* a hyperbolic-fixed-point example where a contraction ``g`` has summable
  per-annulus log-derivative variation but its square root accumulates a
  harmonic (divergent) amount;
* a "brick flow" with plateaus of wildly different speeds whose time-1/2
  map concentrates unbounded variation on the fast plateaus
  (``sergeraert_check``).

The Cantor tree and every staircase inequality are computed in exact
rational arithmetic (``fractions.Fraction``); a float grid cannot resolve
a Cantor set and the 1/4 bound is an exact identity, not an estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from .diffeo import _flat_bump, bisect_monotone
from .gridfn import variation

__all__ = [
    "ConstructionError",
    "CantorTree",
    "QuarticPiece",
    "build_staircase",
    "staircase_phi",
    "staircase_report",
    "StaircaseReport",
    "bv_group_demo",
    "BvDemoReport",
    "hyperbolic_example",
    "HyperbolicReport",
    "BrickField",
    "sergeraert_check",
    "SergeraertReport",
]

Word = Tuple[int, ...]
Interval = Tuple[Fraction, Fraction]


class ConstructionError(RuntimeError):
    """An exact invariant of a counterexample construction failed.

    Raised only on internal bugs: the constructions are designed so that
    every audited identity holds in exact arithmetic.
    """


# ---------------------------------------------------------------------------
# Cantor tree / devil's staircase
# ---------------------------------------------------------------------------


@dataclass
class CantorTree:
    """Nested family of pairwise disjoint rational intervals I_w indexed by
    binary words, together with staircase plateau values u_w.

    ``intervals[w] = (a_w, b_w)`` and ``gaps[w]`` is the gap of the
    previously built structure into which I_w was placed.  The intervals at
    *all* levels are pairwise disjoint (children live in the gaps flanking
    their parent); ``u`` is constant on each interval and the closure of
    the union carries a monotone staircase.
    """

    depth: int
    M: Fraction
    intervals: Dict[Word, Interval]
    gaps: Dict[Word, Interval]
    u: Dict[Word, Fraction]

    def words(self, n: int) -> List[Word]:
        """All words of length n, in tree order."""
        return sorted(w for w in self.intervals if len(w) == n)

    def midpoint(self, w: Word) -> Fraction:
        a, b = self.intervals[w]
        return (a + b) / 2

    @staticmethod
    def epsilon(n: int) -> Fraction:
        return Fraction(1, 3 ** n)

    def sorted_intervals(self) -> List[Tuple[Fraction, Fraction, Word]]:
        """All intervals of the tree sorted by position."""
        items = [(a, b, w) for w, (a, b) in self.intervals.items()]
        items.sort()
        return items

    def u_at(self, x) -> Optional[Fraction]:
        """Plateau value at x, or None if x lies in no interval (exact
        comparison; accepts Fraction or float)."""
        for w, (a, b) in self.intervals.items():
            if a <= x <= b:
                return self.u[w]
        return None


def _audit_tree(tree: CantorTree) -> None:
    """Exact-arithmetic verification of every structural invariant."""
    M = tree.M
    # pairwise disjointness and ordering across all levels
    items = tree.sorted_intervals()
    for (a1, b1, w1), (a2, b2, w2) in zip(items, items[1:]):
        if not b1 < a2:
            raise ConstructionError(f"intervals {w1} and {w2} overlap")
    # per-interval rules
    for w, (a, b) in tree.intervals.items():
        gl, gr = tree.gaps[w]
        if not (gl < a < b < gr):
            raise ConstructionError(f"interval {w} escapes its gap")
        if 3 * (b - a) < (gr - gl):
            raise ConstructionError(f"interval {w} thinner than 1/3 of its gap")
    # parent/child relations
    for w, (a, b) in tree.intervals.items():
        n = len(w)
        c0, c1 = w + (0,), w + (1,)
        if c0 not in tree.intervals:
            continue
        a0, b0 = tree.intervals[c0]
        a1, b1 = tree.intervals[c1]
        gl, gr = tree.gaps[w]
        if not (gl < a0 < b0 < a and b < a1 < b1 < gr):
            raise ConstructionError(f"children of {w} misplaced")
        # staircase steps
        step = Fraction(1, 2 ** (n + 2))
        if tree.u[c0] != tree.u[w] - step or tree.u[c1] != tree.u[w] + step:
            raise ConstructionError(f"u-values of children of {w} wrong")
        # proportion between an interval and its left child (this ratio is
        # the modulus entering the quartic interpolation bound)
        m = (a + b) / 2
        m0 = (a0 + b0) / 2
        ratio = (m - a) / (b0 - m0)
        if not (1 / M <= ratio <= M):
            raise ConstructionError(f"proportion {ratio} at {w} outside [1/M, M]")
        if n >= 1:
            # the left child is parabolic-close to its parent: equality case
            eps = tree.epsilon(n)
            if (a - b0) != eps * (a - m0):
                raise ConstructionError(f"closeness equality fails at {w}")
    # monotonicity of u in tree order
    last_u = None
    for a, b, w in items:
        if last_u is not None and tree.u[w] < last_u:
            raise ConstructionError("u not monotone in tree order")
        last_u = tree.u[w]


def build_staircase(depth: int = 8, M=Fraction(4)) -> CantorTree:
    """Build the exact rational Cantor tree of the staircase construction.

    Level 0 is the central third of [0,1] with u = 1/2.  Its two children
    are the central thirds of the flanking gaps, with u = 1/4 and 3/4.
    For a word w of length n >= 1 with interval [a,b] placed in gap
    (gl, gr):

    * the right child is the central third of (b, gr);
    * the left child starts at the midpoint of (gl, a) and its right
      endpoint is pinned by the equality (a - b0) = eps_n (a - m0) with
      eps_n = 3^(-n), so each left child snuggles up to its parent at a
      controlled, geometrically decaying relative distance.

    u-values split by +-2^-(n+2).  All invariants (disjointness, the 1/3
    width rule, the closeness equality, the [1/M, M] proportion window,
    monotonicity of u) are audited exactly before returning.
    """
    if depth < 1 or depth > 20:
        raise ValueError("depth must be between 1 and 20")
    M = Fraction(M)
    if M < 2:
        raise ValueError("M must be >= 2")
    third = Fraction(1, 3)
    intervals: Dict[Word, Interval] = {(): (third, 2 * third)}
    gaps: Dict[Word, Interval] = {(): (Fraction(0), Fraction(1))}
    u: Dict[Word, Fraction] = {(): Fraction(1, 2)}
    if depth >= 1:
        intervals[(0,)] = (Fraction(1, 9), Fraction(2, 9))
        gaps[(0,)] = (Fraction(0), third)
        u[(0,)] = Fraction(1, 4)
        intervals[(1,)] = (Fraction(7, 9), Fraction(8, 9))
        gaps[(1,)] = (2 * third, Fraction(1))
        u[(1,)] = Fraction(3, 4)
    for n in range(1, depth):
        eps = Fraction(1, 3 ** n)
        step = Fraction(1, 2 ** (n + 2))
        for w in [w for w in list(intervals) if len(w) == n]:
            a, b = intervals[w]
            gl, gr = gaps[w]
            # left child: anchored at the midpoint of the left gap, right
            # endpoint solving (a - b0) = eps*(a - (a0+b0)/2) exactly
            a0 = (gl + a) / 2
            b0 = (a * (1 - eps) + eps * a0 / 2) / (1 - eps / 2)
            intervals[w + (0,)] = (a0, b0)
            gaps[w + (0,)] = (gl, a)
            u[w + (0,)] = u[w] - step
            # right child: central third of the right gap
            width = gr - b
            intervals[w + (1,)] = (b + width / 3, b + 2 * width / 3)
            gaps[w + (1,)] = (b, gr)
            u[w + (1,)] = u[w] + step
    tree = CantorTree(depth=depth, M=M, intervals=intervals, gaps=gaps, u=u)
    _audit_tree(tree)
    return tree


@dataclass(frozen=True)
class QuarticPiece:
    """One support piece of phi_n: on [a, b] the map is
    x + k (x-a)^2 (x-b)^2 with k = (d-c)/((c-a)^2 (b-c)^2), which fixes a
    and b to second order and sends c to d exactly."""

    a: Fraction
    c: Fraction
    d: Fraction
    b: Fraction

    @property
    def k(self) -> Fraction:
        return (self.d - self.c) / ((self.c - self.a) ** 2 * (self.b - self.c) ** 2)

    def value(self, x):
        return x + self.k * (x - self.a) ** 2 * (x - self.b) ** 2

    def deriv_minus_one(self, x):
        """D(phi)-1 = 2k (x-a)(x-b)(2x-a-b)."""
        return 2 * self.k * (x - self.a) * (x - self.b) * (2 * x - self.a - self.b)

    def critical_points(self) -> Tuple[float, float]:
        """The two interior critical points of D(phi)-1: closed form
        (a+b)/2 -+ (b-a)/(2 sqrt 3)."""
        a, b = float(self.a), float(self.b)
        half = (b - a) / (2.0 * math.sqrt(3.0))
        mid = 0.5 * (a + b)
        return (mid - half, mid + half)


def staircase_phi(tree: CantorTree, n: int) -> List[QuarticPiece]:
    """The quartic perturbation pieces of phi_n (identity elsewhere).

    For each word w of length n, the piece lives on [m_{w0}, m_w] (the
    midpoints of the left child and of w) and pushes b_{w0} to a_w.
    Returns an empty list when n >= depth (no children: phi_n = id).
    """
    pieces: List[QuarticPiece] = []
    if n >= tree.depth:
        return pieces
    for w in tree.words(n):
        a_w, _ = tree.intervals[w]
        a0, b0 = tree.intervals[w + (0,)]
        pieces.append(
            QuarticPiece(a=(a0 + b0) / 2, c=b0, d=a_w, b=tree.midpoint(w))
        )
    pieces.sort(key=lambda p: p.a)
    return pieces


def _phi_jet(pieces: List[QuarticPiece], x: np.ndarray):
    """Vectorized float evaluation of (phi, log Dphi), phi the identity off
    the pieces."""
    y = np.array(x, dtype=float)
    ld = np.zeros_like(x, dtype=float)
    for p in pieces:
        a, b = float(p.a), float(p.b)
        k = float(p.k)
        mask = (x >= a) & (x <= b)
        if np.any(mask):
            xm = x[mask]
            y[mask] = xm + k * (xm - a) ** 2 * (xm - b) ** 2
            ld[mask] = np.log1p(2 * k * (xm - a) * (xm - b) * (2 * xm - a - b))
    return y, ld


@dataclass
class StaircaseReport:
    n: int
    piece_count: int
    var_lower_bound: Fraction
    sup_deriv_dist: float
    sup_bound: float
    var_deriv: float
    var_bound: float
    M_prime: float
    holds: bool


def _staircase_deriv_stats(pieces: List[QuarticPiece]) -> Tuple[float, float]:
    """(sup |Dphi - 1|, var(Dphi)) from per-piece closed-form critical
    points; Dphi-1 vanishes at piece endpoints so the variation telescopes
    over [left end, crit1, crit2, right end]."""
    sup = 0.0
    var = 0.0
    for p in pieces:
        c1, c2 = p.critical_points()
        e1 = float(p.deriv_minus_one(c1))
        e2 = float(p.deriv_minus_one(c2))
        sup = max(sup, abs(e1), abs(e2))
        var += abs(e1) + abs(e1 - e2) + abs(e2)
    return sup, var


def _family_sup_bound(M: float, eps: float) -> float:
    """Sup bound for |Dphi - 1| in terms of the proportion modulus M and
    the closeness parameter eps of the displaced point."""
    r = eps / (1.0 - eps)
    return max(16 * M ** 2 * r, 8 * M * r * (1 + r), 16 * M ** 3 * r)


def staircase_report(tree: CantorTree, n: int) -> StaircaseReport:
    """Certified inequalities for phi_n.

    * ``var_lower_bound``: exact rational lower bound for
      var(u o phi_n - u), obtained from the partition by the points
      {m_{w0}, b_{w0}, a_w}: phi_n fixes m_{w0} and maps b_{w0} to a_w
      exactly, so each word of length n contributes exactly
      u_w - u_{w0} = 2^-(n+2); the 2^n words sum to exactly 1/4.
    * ``sup_deriv_dist``: closed-form max of |Dphi_n - 1|, against the
      modulus bound with eps = 3^-n.
    * ``var_deriv``: total variation of Dphi_n, against M'(2/3)^n with M'
      calibrated so that equality holds at n = 1.

    ``holds`` reports the last two; a falsified bound is reported, not
    raised.
    """
    if not (1 <= n < tree.depth):
        raise ValueError("need 1 <= n < depth")
    pieces = staircase_phi(tree, n)
    # exact audit: each piece fixes its endpoints and maps c to d exactly
    for p in pieces:
        if p.value(p.a) != p.a or p.value(p.b) != p.b or p.value(p.c) != p.d:
            raise ConstructionError("quartic piece fails its exact mapping contract")
    # exact lower bound for var(u o phi_n - u)
    lower = Fraction(0)
    for w in tree.words(n):
        a_w, b_w = tree.intervals[w]
        a0, b0 = tree.intervals[w + (0,)]
        u_at_image = tree.u_at(a_w)  # phi_n(b0) = a_w exactly
        u_at_point = tree.u_at(b0)
        if u_at_image is None or u_at_point is None:
            raise ConstructionError("staircase value lookup failed")
        # v(m0) = 0 (fixed point inside the gap), v(b0) = u_w - u_w0
        lower += abs(u_at_image - u_at_point)
    if lower < Fraction(1, 4):
        raise ConstructionError("exact 1/4 lower bound violated")
    sup, var = _staircase_deriv_stats(pieces)
    eps = float(tree.epsilon(n))
    sup_bound = _family_sup_bound(float(tree.M), eps)
    if n == 1:
        var1 = var
    else:
        var1 = _staircase_deriv_stats(staircase_phi(tree, 1))[1]
    M_prime = var1 * 1.5  # equality at n = 1
    var_bound = M_prime * (2.0 / 3.0) ** n
    holds = sup <= sup_bound * (1 + 1e-12) and var <= var_bound * (1 + 1e-12)
    return StaircaseReport(
        n=n,
        piece_count=len(pieces),
        var_lower_bound=lower,
        sup_deriv_dist=sup,
        sup_bound=sup_bound,
        var_deriv=var,
        var_bound=var_bound,
        M_prime=M_prime,
        holds=holds,
    )


# ---------------------------------------------------------------------------
# Left-multiplication discontinuity demo
# ---------------------------------------------------------------------------


@dataclass
class BvDemoReport:
    n: int
    d1_phi: float
    d1pbv_left: float
    grid_slack: float


def _staircase_step_function(tree: CantorTree):
    """Piecewise-constant float representation of u on [0,1].

    Breakpoints are all interval endpoints; gaps below the resolved depth
    take the midpoint of the neighbouring plateau values (any choice in
    between is consistent with the staircase; the induced slack is
    2^-(depth+1) per unresolved gap and is reported).
    """
    items = tree.sorted_intervals()
    xs: List[float] = [0.0]
    vals: List[float] = []
    prev_u = float(tree.u[items[0][2]])  # value for the leading gap
    # leading gap [0, a_first): clamp to first plateau value
    first_a = float(items[0][0])
    if first_a > 0:
        xs.append(first_a)
        vals.append(prev_u)
    for i, (a, b, w) in enumerate(items):
        uu = float(tree.u[w])
        xs.append(float(b))
        vals.append(uu)
        if i + 1 < len(items):
            na, _, nw = items[i + 1][0], items[i + 1][1], items[i + 1][2]
            xs.append(float(na))
            vals.append(0.5 * (uu + float(tree.u[nw])))
        else:
            xs.append(1.0)
            vals.append(uu)
    return np.asarray(xs), np.asarray(vals)


def _step_eval(xs: np.ndarray, vals: np.ndarray, x: np.ndarray) -> np.ndarray:
    idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(vals) - 1)
    return vals[idx]


def _piece_preimages(p: QuarticPiece, targets) -> List[float]:
    """phi^-1(t) inside the piece for each target t, by bisection.

    The constants are rounded to floats once: ``p.value`` on a float does
    the same float operations, so the roots are the same bits."""
    a, b, k = float(p.a), float(p.b), float(p.k)
    return bisect_monotone(lambda m: m + k * (m - a) ** 2 * (m - b) ** 2,
                           targets, a, b).tolist()


def bv_group_demo(tree: CantorTree, n: int) -> BvDemoReport:
    """Left multiplication by f is discontinuous at id in the C^{1+bv}
    metric: with Df = e^u / int e^u (u the staircase potential), the
    distance d_{1+bv}(f o phi_n, f) stays >= ~1/4 while d_1(phi_n, id)
    tends to 0.

    For n >= depth the perturbation is empty and both distances are 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    pieces = staircase_phi(tree, n)
    if not pieces:
        return BvDemoReport(n=n, d1_phi=0.0, d1pbv_left=0.0, grid_slack=0.0)
    xs, vals = _staircase_step_function(tree)
    # f: piecewise-linear primitive of e^u, normalized to fix [0,1]
    dens = np.exp(vals)
    seg = np.diff(xs)
    cum = np.concatenate([[0.0], np.cumsum(dens * seg)])
    Z = cum[-1]

    def f_eval(x):
        idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(seg) - 1)
        return (cum[idx] + dens[idx] * (x - xs[idx])) / Z

    # sample points: breakpoints, piece nodes, preimages of breakpoints
    # under phi_n (where u o phi_n jumps), and a dense filler grid
    samples = set(xs.tolist())
    for p in pieces:
        a, b = float(p.a), float(p.b)
        samples.update((a, b))
        samples.update(p.critical_points())
        lo = np.searchsorted(xs, a, side="left")
        hi = np.searchsorted(xs, b, side="right")
        samples.update(_piece_preimages(p, xs[lo:hi].tolist()))
    grid = np.linspace(0.0, 1.0, 2 ** 14 + 1)
    pts = np.unique(np.concatenate([np.asarray(sorted(samples)), grid]))
    # straddle each candidate jump point
    eps = 1e-12
    pts = np.unique(np.clip(
        np.concatenate([pts, pts - eps, pts + eps]), 0.0, 1.0))
    phix, ld = _phi_jet(pieces, pts)
    w = _step_eval(xs, vals, np.clip(phix, 0.0, 1.0)) - _step_eval(xs, vals, pts) + ld
    var_w = variation(w)
    sup_f = float(np.max(np.abs(f_eval(np.clip(phix, 0.0, 1.0)) - f_eval(pts))))
    d1pbv = sup_f + var_w
    sup_phi = float(np.max(np.abs(phix - pts)))
    sup_ld = float(np.max(np.abs(ld)))
    d1 = sup_phi + sup_ld
    slack = 2.0 ** (-(tree.depth + 1))
    return BvDemoReport(n=n, d1_phi=d1, d1pbv_left=d1pbv, grid_slack=slack)


# ---------------------------------------------------------------------------
# Hyperbolic fixed point: g has a C^1 but no C^{1+bv} square root
# ---------------------------------------------------------------------------


@dataclass
class HyperbolicReport:
    N: int
    # var(log Dg) and var(log D g^(1/2)) per annulus, exact
    annulus_var_g: List[Fraction] = field(repr=False)
    annulus_var_root: List[Fraction] = field(repr=False)
    partial_sum_g: Fraction
    basel_tail: float
    partial_sum_root: Fraction
    harmonic_N: Fraction
    support_endpoints: List[Tuple[float, float]] = field(repr=False)
    endpoint_residual: float
    annulus_map_residual: float
    sampled_var_gap: float


def _triangle_profile(k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and values of log D psi_k: a balanced pair of triangles
    (heights +h and -h, h = 1/(4 k^2)) on a sub-cell of [sqrt 2, 2].

    The widths of the two triangles are chosen in closed form so that
    int (e^g - 1) = 0 exactly, i.e. psi_k fixes the endpoints of its
    support; the total variation of the piecewise-linear profile is then
    exactly 4h = 1/k^2.
    """
    root2 = math.sqrt(2.0)
    L = (2.0 - root2) / 2.0
    lo = root2 + L * 2.0 ** (-k)
    hi = root2 + L * 2.0 ** (1 - k)
    w = hi - lo
    s, e = lo + 0.1 * w, hi - 0.1 * w
    W = e - s
    h = 1.0 / (4.0 * k * k)
    up = (math.expm1(h) / h) - 1.0          # mean of e^g - 1 on the up-triangle
    down = 1.0 - (-math.expm1(-h)) / h      # -(mean of e^g - 1) on the down one
    r = up / down
    w_plus = W / (1.0 + r)
    w_minus = W - w_plus
    nodes = np.array([s, s + w_plus / 2, s + w_plus, s + w_plus + w_minus / 2, e])
    vals = np.array([0.0, h, 0.0, -h, 0.0])
    return nodes, vals


def _psi_from_profile(nodes: np.ndarray, vals: np.ndarray):
    """Integrate e^g exactly per linear segment; returns psi on [nodes0,
    nodes-1] as a callable plus its endpoint residual |psi(e) - e|."""
    segs = []
    acc = nodes[0]
    for x0, x1, g0, g1 in zip(nodes[:-1], nodes[1:], vals[:-1], vals[1:]):
        segs.append((x0, x1, g0, g1, acc))
        if g1 == g0:
            acc += (x1 - x0) * math.exp(g0)
        else:
            acc += (x1 - x0) * (math.exp(g1) - math.exp(g0)) / (g1 - g0)
    residual = abs(acc - nodes[-1])

    def psi(x: float) -> float:
        if x <= nodes[0]:
            return x
        if x >= nodes[-1]:
            return x
        for x0, x1, g0, g1, base in segs:
            if x <= x1:
                if g1 == g0:
                    return base + (x - x0) * math.exp(g0)
                slope = (g1 - g0) / (x1 - x0)
                return base + (math.exp(g0 + slope * (x - x0)) - math.exp(g0)) / slope
        return x

    return psi, residual


def hyperbolic_example(N: int = 1000) -> HyperbolicReport:
    """Annulus-by-annulus variation budget for the hyperbolic example.

    f(x) = x/2; the annuli are A_k = f^k([1,2]) = [2^-k, 2^(1-k)].  The
    map g agrees with f conjugated by a product of bumps psi_k whose
    supports are pairwise disjoint sub-cells of [sqrt 2, 2], with
    var(log D psi_k) = 1/k^2 exactly.  Then

    * var(log Dg; A_k) = var(log D psi_k) = 1/k^2 (linear conjugation by
      the homothety preserves log-derivative variation exactly) -- the
      partial sums converge (Basel);
    * the square root g^(1/2) carries on A_k the whole tail product
      prod_{j >= k} psi_j, so var(log D g^(1/2); A_k) = sum_{j>=k} 1/j^2,
      and the partial sums telescope to exactly the harmonic number H_N,
      which diverges.

    The sums are exact rationals and the harmonic identity is audited in
    Fraction arithmetic; N is capped at 2000 to keep the Fractions fast.
    """
    if not (1 <= N <= 2000):
        raise ValueError("need 1 <= N <= 2000")
    var_g = [Fraction(1, k * k) for k in range(1, N + 1)]
    tail = Fraction(0)
    var_root_rev: List[Fraction] = []
    for k in range(N, 0, -1):
        tail += Fraction(1, k * k)
        var_root_rev.append(tail)
    var_root = list(reversed(var_root_rev))
    partial_g = sum(var_g, Fraction(0))
    partial_root = sum(var_root, Fraction(0))
    harmonic = sum((Fraction(1, k) for k in range(1, N + 1)), Fraction(0))
    if partial_root != harmonic:
        raise ConstructionError("harmonic telescoping identity failed")
    basel_tail = math.pi ** 2 / 6.0 - float(partial_g)

    # build and audit the first few bumps as genuine maps
    verify_k = min(N, 8)
    supports: List[Tuple[float, float]] = []
    endpoint_residual = 0.0
    annulus_residual = 0.0
    sampled_gap = 0.0
    prev_hi = 2.0 + 1e-9
    for k in range(1, verify_k + 1):
        nodes, vals = _triangle_profile(k)
        if nodes[-1] >= prev_hi:
            raise ConstructionError("bump supports overlap")
        prev_hi = nodes[0]
        supports.append((float(nodes[0]), float(nodes[-1])))
        psi, res = _psi_from_profile(nodes, vals)
        endpoint_residual = max(endpoint_residual, res)
        # profile variation matches the exact value 1/k^2
        xs = np.linspace(nodes[0], nodes[-1], 4097)
        g = np.interp(xs, nodes, vals)
        sampled_gap = max(
            sampled_gap, abs(variation(g) - 1.0 / (k * k)))
        # psi_k fixes the right end of its support and increases strictly
        # on a grid through it, so g maps the annulus A_k into A_{k+1}
        if res > 1e-12:
            raise ConstructionError(
                f"psi_{k} moves the end of its support by {res:.3e}")
        grid = np.concatenate(
            ([1.0], np.linspace(nodes[0], nodes[-1], 257), [2.0]))
        ys = np.array([psi(x) for x in grid])
        if not np.all(np.diff(ys) > 0.0):
            raise ConstructionError(f"psi_{k} is not strictly increasing")
        scale = 2.0 ** (-k)
        y = 0.5 * scale * ys                  # g at the points scale*grid of A_k
        if np.any(y < scale / 2.0 - 1e-12) or np.any(y > scale + 1e-12):
            raise ConstructionError("annulus image escapes its target")
        annulus_residual = max(
            annulus_residual,
            abs(0.5 * scale * psi(1.0) - scale / 2.0),
            abs(0.5 * scale * psi(2.0) - scale),
        )
    return HyperbolicReport(
        N=N,
        annulus_var_g=var_g[:16],
        annulus_var_root=var_root[:16],
        partial_sum_g=partial_g,
        basel_tail=basel_tail,
        partial_sum_root=partial_root,
        harmonic_N=harmonic,
        support_endpoints=supports,
        endpoint_residual=endpoint_residual,
        annulus_map_residual=annulus_residual,
        sampled_var_gap=sampled_gap,
    )


# ---------------------------------------------------------------------------
# Brick flow (time-1/2 map with unbounded variation)
# ---------------------------------------------------------------------------


# the brick's model displacement bump: flat to all orders at 1/2 and 1, max 1
# at u = 3/4
_DELTA = (0.5, 1.0, 16.0)


def _smoothstep(t):
    """C^2 quintic step 6t^5 - 15t^4 + 10t^3 on [0,1]."""
    t = np.clip(t, 0.0, 1.0)
    return t ** 3 * (10.0 + t * (-15.0 + 6.0 * t))


@dataclass
class BrickField:
    """Geometry of one brick: five zones of equal width w = 2^(-k-1)/5.

    Left and right plateaus move at speed 2^(-k^2); the central plateau
    at 2^(-k^3); the two interpolation zones blend with a C^2 quintic
    step.  t_k = -2^(-k^2-1) is the time-1/2 displacement on the side
    plateaus.  All positions below are relative to the brick's left edge.
    """

    k: int
    zone_width: float = field(init=False)
    side_speed: float = field(init=False)
    center_speed: float = field(init=False)
    t_k: float = field(init=False)

    def __post_init__(self):
        self.zone_width = 2.0 ** (-self.k - 1) / 5.0
        self.side_speed = -(2.0 ** (-self.k ** 2))
        self.center_speed = -(2.0 ** (-self.k ** 3))
        self.t_k = -(2.0 ** (-self.k ** 2 - 1))

    def X0(self, x):
        """The underlying field on the brick (relative coordinates)."""
        x = np.asarray(x, dtype=float)
        w = self.zone_width
        s, c = self.side_speed, self.center_speed
        out = np.full_like(x, s)
        # center plateau
        out = np.where((x >= 2 * w) & (x <= 3 * w), c, out)
        # interpolation zones
        m1 = (x > w) & (x < 2 * w)
        out = np.where(m1, s + (c - s) * _smoothstep((x - w) / w), out)
        m2 = (x > 3 * w) & (x < 4 * w)
        out = np.where(m2, c + (s - c) * _smoothstep((x - 3 * w) / w), out)
        return out


@dataclass
class SergeraertReport:
    k: int
    orbit_residual: float
    half_map_residual: float
    half_map_residual_split: float
    var_measured: float
    var_integral: float
    var_identity_gap: float
    ratio_unit_scale: float
    ratio_brick_scale: float
    c_l1_half: float
    log2_count: float
    log2_var: float
    log2_total: float
    log2_c_prime: float
    threshold_exponent: int
    junction_jump_d1: float
    junction_jump_d2: float
    delta_flatness: float
    displacement_below_resolution: bool


def _phi_local(t: float, u: np.ndarray) -> np.ndarray:
    """phi in unit coordinates of its fundamental interval: u + t*delta(u)."""
    return u + t * _flat_bump(u, *_DELTA)[0]


def _phi_local_inv(t: float, y: np.ndarray) -> np.ndarray:
    """Inverse of u + t*delta(u) by bisection (t << 1)."""
    y = np.asarray(y, dtype=float)
    return bisect_monotone(lambda u: _phi_local(t, u), y,
                           y - 2.0 * abs(t), y + 2.0 * abs(t))


def sergeraert_check(k: int) -> SergeraertReport:
    """Certified checks for the brick-flow time-1/2 pathology.

    All orbit algebra is done in unit coordinates of the fundamental
    intervals (length 2^(-k^2) on the side plateaus): within a plateau
    the time-1 map is an exact unit translation, the transit maps between
    corresponding fundamental intervals of equal speed are exact
    translations (derivative 1 because the field takes the same value at
    both ends), and the transit map from a 2^(-k^2)-plateau of brick k to
    one of brick k+1 is exact affine.  This sidesteps the catastrophic
    precision loss of absolute coordinates (displacements of size
    2^(-k^3) on points of size 2^(-k)).

    (i)  the full-turn conjugation-cancellation: the perturbed map agrees
         with the unperturbed flow from one marked fundamental interval
         to the next (residual in unit coordinates);
    (ii) the claimed piecewise time-1/2 map squares to the time-1 map on
         the marked interval pair (plain double arithmetic, plus a
         base/displacement split evaluation whose residual stays
         meaningful even when 2^(-k^3) falls below the resolution of
         doubles relative to the base point);
    (iii) var(log D f^(1/2)) over the perturbed half-interval equals the
         L^1 norm of D^2 delta_k / (1 + D delta_k) there; the ratio of
         this variation to 2^(k^2 - k^3) is the k-stable constant
         ||D^2 delta||_{L^1(1/2,1)};
    (iv) the count of fast fundamental intervals per brick times the
         per-interval variation, in log2 arithmetic (the count
         2^(k^3-k-1)/5 - 2 is evaluated symbolically, never enumerated).
    """
    if k not in (3, 4, 5):
        raise ValueError("k must be in {3, 4, 5}")
    brick = BrickField(k)
    t = 2.0 ** (k ** 2 - k ** 3)  # displacement scale in unit coordinates
    # ---- (ii) half map squares to the full map on J u I (units: J=[0,1],
    # I=[1,2]; the time-1 map is x -> x-1 plus the bump displacement on I)
    probes = np.linspace(0.0, 2.0, 4097)

    def full_map(x):
        return x - 1.0 + t * _flat_bump(x - 1.0, *_DELTA)[0]

    def half_map(x):
        return np.where(x < 1.5, x - 0.5,
                        x - 0.5 + t * _flat_bump(x - 1.0, *_DELTA)[0])

    resid_half = float(np.max(np.abs(half_map(half_map(probes)) - full_map(probes))))
    # split evaluation: (base, displacement) pairs
    base = probes.copy()
    disp = np.zeros_like(probes)
    for _ in range(2):
        disp = disp + np.where(base >= 1.5,
                               t * _flat_bump(base - 1.0 + disp, *_DELTA)[0], 0.0)
        base = base - 0.5
    disp_full = t * _flat_bump(probes - 1.0, *_DELTA)[0]
    resid_split = float(np.max(np.abs(disp - disp_full)))
    below = (1.5 + t) == 1.5  # displacement unrepresentable next to the base
    # ---- (i) orbit cancellation across one full turn, in unit
    # coordinates of brick k+1 (the transit from J_k is exact affine onto
    # the marked interval; conjugating the inverse bump through the exact
    # translation cancels the bump applied one turn later)
    t_next = 2.0 ** ((k + 1) ** 2 - (k + 1) ** 3)
    u = np.linspace(0.0, 1.0, 1025)
    lhs = _phi_local(t_next, _phi_local_inv(t_next, u)) - 1.0
    rhs = u - 1.0
    resid_orbit = float(np.max(np.abs(lhs - rhs)))
    # ---- (iii) variation identity on the perturbed half-interval, over the
    # 2^20 + 1 dyadic nodes of [1/2, 1] in 16 chunks (no full-grid arrays);
    # the chunk sums add pairwise, as numpy sums a 2^20-long array
    chunks = (0.5 + np.arange(i, i + 2 ** 16 + 1) * 2.0 ** -21
              for i in range(0, 2 ** 20, 2 ** 16))
    parts = []
    for u in chunks:
        _, d1, d2 = _flat_bump(u, *_DELTA, 2)
        parts.append((variation(np.log1p(t * d1)), np.trapezoid(np.abs(d2), u)))
    parts = np.array(parts)
    while len(parts) > 1:
        parts = parts[::2] + parts[1::2]
    var_measured, c_half = float(parts[0, 0]), float(parts[0, 1])
    # independent quadrature of |t D^2 delta / (1 + t D delta)| du, split
    # at the sign changes of D^2 delta
    def integrand(uu):
        _, d1, d2 = _flat_bump(uu, *_DELTA, 2)
        return np.abs(t * d2 / (1.0 + t * d1))

    scan = np.linspace(0.5 + 1e-9, 1.0 - 1e-9, 20001)
    d2 = _flat_bump(scan, *_DELTA, 2)[2]
    sign = np.sign(d2)
    cells = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    s = sign[cells + 1]  # each bracket an increasing crossing of s D^2 delta
    roots = bisect_monotone(lambda x: s * _flat_bump(x, *_DELTA, 2)[2],
                            np.zeros(cells.size),
                            scan[cells], scan[cells + 1])
    roots = sorted([0.5, 1.0] + roots.tolist())
    var_integral = 0.0
    for a, b in zip(roots[:-1], roots[1:]):
        xs = np.linspace(a, b, 4097)
        ys = integrand(xs)
        # Simpson on the uniform grid
        h = (b - a) / (len(xs) - 1)
        var_integral += h / 3.0 * float(
            ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())
    var_gap = abs(var_measured - var_integral)
    ratio_unit = var_measured / t
    ratio_brick = var_measured / (t * 2.0 ** (k ** 2))
    # ---- (iv) log2 counting
    count = (1 << (k ** 3 - k - 1)) // 5 - 2
    log2_count = math.log2(count)
    log2_var = math.log2(var_measured)
    log2_total = log2_count + log2_var
    threshold = 2 * k ** 2 - k
    log2_c_prime = log2_total - threshold
    # ---- junction smoothness of the field (finite differences)
    w = brick.zone_width
    h = w * 1e-4
    jump1 = 0.0
    jump2 = 0.0
    for j in (w, 2 * w, 3 * w, 4 * w):
        left = brick.X0(np.array([j - 3 * h, j - 2 * h, j - h]))
        right = brick.X0(np.array([j + h, j + 2 * h, j + 3 * h]))
        dl = (left[2] - left[0]) / (2 * h)
        dr = (right[2] - right[0]) / (2 * h)
        d2l = (left[0] - 2 * left[1] + left[2]) / h ** 2
        d2r = (right[0] - 2 * right[1] + right[2]) / h ** 2
        scale = abs(brick.side_speed - brick.center_speed) / w
        jump1 = max(jump1, abs(dl - dr) / max(scale, 1e-300))
        jump2 = max(jump2, abs(d2l - d2r) / max(scale / w, 1e-300))
    ends = np.array([0.5 + 1e-3, 1.0 - 1e-3])
    flat = float(max(np.max(np.abs(d)) for d in _flat_bump(ends, *_DELTA, 2)))
    return SergeraertReport(
        k=k,
        orbit_residual=resid_orbit,
        half_map_residual=resid_half,
        half_map_residual_split=resid_split,
        var_measured=var_measured,
        var_integral=var_integral,
        var_identity_gap=var_gap,
        ratio_unit_scale=ratio_unit,
        ratio_brick_scale=ratio_brick,
        c_l1_half=c_half,
        log2_count=log2_count,
        log2_var=log2_var,
        log2_total=log2_total,
        log2_c_prime=log2_c_prime,
        threshold_exponent=threshold,
        junction_jump_d1=jump1,
        junction_jump_d2=jump2,
        delta_flatness=flat,
        displacement_below_resolution=below,
    )
