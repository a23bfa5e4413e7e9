"""The algebra laws of compose, inverse and reflect over one map of every
interval class (``test_jet._interval_maps``).

Each law is read on value and log Df at 401 interior points and, for maps
whose own expression and whose reflection hold no generic chart
ChartMap(., 1, 0), also at the tails x = 1e-12 and 1 - 1e-12."""

import numpy as np

from difflab import (AnalyticField, Bump, BumpDisplacement, BumpPerturbation, Composition,
                     Diffeo, FlowTime, moebius_field)
from difflab.diffeo import ChartMap
from test_jet import _interval_maps

# law: (value tolerance, log Df tolerance, why).  Value errors are relative
# to the expected value, so the tail x = 1e-12 is read to its own scale;
# "mirror" compares 1 - y with y rounded to an ulp of 1, so its value error
# is absolute.  log Df errors are absolute.
_TOL = {
    "reflect_twice": (1e-14, 1e-13,
                      "0.0 where both reflections are structural; 1 - (1 - c) "
                      "moves a bump center c = 0.3 by an ulp (2e-16, 1.1e-15); "
                      "the generic chart of a bridge flow against its exact "
                      "reflection: 6.9e-15, 3.2e-14"),
    "reflect_inverse": (1e-15, 1e-15,
                        "0.0 where both sides are one expression; a generic "
                        "chart of a table inverse and the table inverse of the "
                        "chart round apart: 2.2e-16 in log Df"),
    "inverse": (1e-12, 1e-12,
                "f o f^-1 = id to rounding, through Df; 80 bisection steps "
                "resolve 2^-80 = 8e-25, 1.1e-13 relative at x = 1e-12"),
    "inverse_szekeres": (1e-8, 1e-7,
                         "tau shifts by whole periods, tau^-1 by the table's "
                         "period 1 + period_residual, so f^t o f^-t misses id "
                         "by about period_residual (3.4e-10) per period walked: "
                         "3.8e-9 (value, at x = 0.0025) and 2.3e-8 (log Df, at "
                         "x = 0.99); no stated error yet (ROADMAP item 8)"),
    "mirror": (1e-15, 1e-13,
               "1 - reflect(f)(1 - x) = f(x) to an ulp of 1 in value; log Df "
               "moved by 1 - (1 - x) through D log Df: 3.1e-14"),
    "bump_product_composite": (0.0, 1e-15,
                               "a composite base is flattened into the product, "
                               "so log Db joins the sum of its factors' log Df "
                               "first: the same terms in another order, 2.2e-16"),
}

# law failures this suite found that are not mended: a bridge flow reads
# log Df^t(x) as log X(f^t x) - log X(x), and f^t(x) rounds to the float
# grid near 1, so 1 - f^t(x) keeps four digits at x = 1 - 1e-12 and log
# Df^t there is off by up to 1.1e-4.  The closed form
# -lam t - 2 log(1 - x + x e^(-lam t)) mends it, but moves the bits of
# every report that flows a bridge field.  A mended entry fails the suite
# until it is taken out here.
_BRIDGE = repr(FlowTime(moebius_field(2.0), 0.7))
_KNOWN = {("inverse", _BRIDGE), ("inverse", f"InverseMap({_BRIDGE})"),
          ("mirror", _BRIDGE), ("mirror", f"InverseMap({_BRIDGE})")}

INTERIOR = np.linspace(0.0, 1.0, 403)[1:-1]
TAILS = np.array([1e-12, 1.0 - 1e-12])


def _holds(p, pred) -> bool:
    """True when pred holds for a map in the expression p (a map, or a
    tuple of parts), walked through the maps' attributes."""
    if isinstance(p, tuple):
        return any(_holds(q, pred) for q in p)
    if not isinstance(p, Diffeo):
        return False
    return pred(p) or any(_holds(q, pred) for q in vars(p).values())


def _generic_chart(m) -> bool:
    return isinstance(m, ChartMap) and (m.a, m.b) == (1.0, 0.0)


def _exact(f) -> bool:
    """True when neither f nor its reflection holds a generic chart."""
    return not (_holds(f, _generic_chart) or _holds(f.reflect(), _generic_chart))


def _szekeres_table(m) -> bool:
    return isinstance(m, FlowTime) and not isinstance(m.field, AnalyticField)


def _reflect_twice(f, x):
    return f.jet(x), f.reflect().reflect().jet(x)


def _reflect_inverse(f, x):
    return f.reflect().inverse_map().jet(x), f.inverse_map().reflect().jet(x)


def _inverse(f, x):
    # f o f^-1 factor by factor, so that no symbolic cancellation hides it
    y, ld_inv = f.inverse_map().jet(x)
    z, ld = f.jet(y)
    return (x, np.zeros_like(x)), (z, ld + ld_inv)


def _mirror(f, x):
    y, ld = f.reflect().jet(1.0 - x)
    return f.jet(x), (1.0 - y, ld)


_LAWS = {"reflect_twice": _reflect_twice, "reflect_inverse": _reflect_inverse,
         "inverse": _inverse, "mirror": _mirror}


def _failures(law):
    """(law, repr(f)) for every map of the table that breaks the law beyond
    its tolerance, interior or tails."""
    out = set()
    for f in _interval_maps():
        tol = law
        if law == "inverse" and _holds(f, _szekeres_table):
            tol = "inverse_szekeres"
        v_tol, ld_tol, _ = _TOL[tol]
        for x in (INTERIOR, TAILS) if _exact(f) else (INTERIOR,):
            (v, ld), (w, lw) = _LAWS[law](f, x)
            dv = np.abs(w - v) if law == "mirror" else np.abs(w - v) / np.abs(v)
            if np.max(dv) > v_tol or np.max(np.abs(lw - ld)) > ld_tol:
                out.add((law, repr(f)))
    return out


def _known(law):
    return {k for k in _KNOWN if k[0] == law}


def test_reflect_twice_is_the_map():
    assert _failures("reflect_twice") == _known("reflect_twice")


def test_reflection_of_the_inverse_is_the_inverse_of_the_reflection():
    assert _failures("reflect_inverse") == _known("reflect_inverse")


def test_map_after_its_inverse_is_the_identity():
    assert _failures("inverse") == _known("inverse")


def test_reflection_is_the_map_seen_from_the_other_end():
    assert _failures("mirror") == _known("mirror")


def test_the_tails_are_read_on_every_exact_class():
    exact = {type(f).__name__ for f in _interval_maps() if _exact(f)}
    assert exact == {"Moebius", "BumpDisplacement", "FlowTime", "Composition",
                     "InverseMap"}


def test_bump_perturbation_is_the_product_bit_for_bit():
    # the bits of base o b as one node read them: base at b(x), and
    # log D(base)(b(x)) + log Db(x)
    bumps = [Bump(0.45, 0.2, 0.08)]
    b = BumpDisplacement(bumps)
    x = np.concatenate((TAILS, INTERIOR))
    bx, db = b._b(x, 1)
    for base in _interval_maps():
        v, ld = BumpPerturbation(base, bumps).jet(x)
        assert v.tobytes() == base._value(bx).tobytes(), base
        old = base._jet(bx)[1] + np.log(db)
        if isinstance(base, Composition):
            assert np.max(np.abs(ld - old)) <= _TOL["bump_product_composite"][1], base
        else:
            assert ld.tobytes() == old.tobytes(), base
