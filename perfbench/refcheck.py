"""Field-by-field comparison of a result with its stored reference.

Strings (rational strings included), booleans, integers and None must match
exactly, as must dict keys and list lengths.  A float passes if it lies
within the result's own uncertainty where it carries one (a sibling field
named by ``UNCERTAINTY``, floored at ``abs_tol``), else within
``rel_tol * |reference| + abs_tol``; both bounds are recorded next to the
reference.
"""

from __future__ import annotations

import math

# float field -> the sibling field holding its uncertainty
UNCERTAINTY = {"value": "uncertainty", "limit": "uncertainty",
               "vinf": "vinf_uncertainty"}


def compare(ref, got, rel_tol: float, abs_tol: float, path: str = "") -> list:
    """Differences between ``ref`` and ``got`` as readable strings."""
    return _compare(ref, got, rel_tol, abs_tol, path or "$", None)


def _compare(ref, got, rel_tol, abs_tol, path, unc):
    if isinstance(ref, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if got == ref or (math.isnan(ref) and math.isnan(got)):
            return []
        tol = max(unc, abs_tol) if unc is not None else rel_tol * abs(ref) + abs_tol
        if abs(got - ref) <= tol:
            return []
        return [f"{path}: {got!r} != {ref!r} (tol {tol:.3g})"]
    if type(ref) is not type(got):
        return [f"{path}: type {type(got).__name__} != {type(ref).__name__}"]
    if isinstance(ref, dict):
        if ref.keys() != got.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(ref)}"]
        out = []
        for key in ref:
            u = None
            if key in UNCERTAINTY and UNCERTAINTY[key] in ref:
                u = max(abs(ref[UNCERTAINTY[key]]), abs(got[UNCERTAINTY[key]]))
            out += _compare(ref[key], got[key], rel_tol, abs_tol,
                            f"{path}.{key}", u)
        return out
    if isinstance(ref, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out += _compare(r, g, rel_tol, abs_tol, f"{path}[{i}]", None)
        return out
    return [] if ref == got else [f"{path}: {got!r} != {ref!r}"]
