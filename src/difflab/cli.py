"""Command-line front end: spec ingestion, dispatch, report emission.

A run is described by a JSON spec::

    {"cmd": "vinf", "params": {"f": {"kind": "moebius", "a": 2}}}

``load_spec`` validates the document (unknown fields are rejected with
their dotted path), ``run_command`` dispatches to the library and returns
a plain-dict report, and ``emit_report`` writes deterministic JSON plus
optional CSV series and hand-rolled SVG line plots.  Exit codes: 0 on
success, 2 when a certificate in the report is falsified (the report
carries a machine-readable ``violations`` array either way), 1 on errors.

Reports are byte-stable: identical spec + config produce identical JSON
payloads (no timestamps; provenance lives in a sidecar metadata file).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .gridfn import DEFAULT_CONFIG, ToleranceConfig
from .diffeo import (
    ActionTuple,
    Bump,
    BumpPerturbation,
    GridMap,
    Moebius,
    Rotation,
    compose,
    identity,
    inverse,
    iterate,
    metric,
    rotation_number,
)
from .szekeres import (
    AnalyticField,
    FlowTime,
    flow_group_residual,
    moebius_field,
    szekeres_field,
)
from .invariants import (
    asymptotic_variation,
    coboundary_drift,
    mather_inequality_check,
)
from .deform import (
    classify_action,
    deform_action,
    example_two_component_action,
    geometric_mean_conjugacy,
    herman_average,
    interpolation_path,
    regularize_flow,
)
from .counterexamples import (
    build_staircase,
    bv_group_demo,
    hyperbolic_example,
    sergeraert_check,
    staircase_report,
)

__all__ = ["SpecError", "ExperimentSpec", "load_spec", "run_command",
           "emit_report", "main"]

SPEC_VERSION = 1


class SpecError(ValueError):
    """Schema violation; the message names the offending field path."""


# ---------------------------------------------------------------------------
# spec model


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    cmd: str
    params: dict
    grid_N: int = DEFAULT_CONFIG.grid_N
    tol: float = 1e-6
    formats: tuple = ("json",)
    out: str | None = None

    @property
    def config(self) -> ToleranceConfig:
        return ToleranceConfig(grid_N=self.grid_N)


_TOP_LEVEL = ("cmd", "params", "grid_N", "tol", "format", "out", "version")


def _validate_spec_dict(doc: dict) -> ExperimentSpec:
    if not isinstance(doc, dict):
        raise SpecError("spec must be a JSON object")
    for key in doc:
        if key not in _TOP_LEVEL:
            raise SpecError(f"unknown field '{key}'")
    if "version" in doc and doc["version"] != SPEC_VERSION:
        raise SpecError(f"version mismatch: expected {SPEC_VERSION}, "
                        f"got {doc['version']}")
    cmd = doc.get("cmd")
    if cmd not in COMMANDS:
        raise SpecError(f"field 'cmd' must be one of {COMMANDS}, got {cmd!r}")
    schema = _COMMANDS[cmd][1]
    raw = doc.get("params", {})
    if not isinstance(raw, dict):
        raise SpecError("field 'params' must be an object")
    for key in raw:
        if key not in schema:
            raise SpecError(f"unknown field 'params.{key}'")
    params = {k: raw.get(k, v) for k, v in schema.items()}
    fmts = doc.get("format", ["json"])
    if isinstance(fmts, str):
        fmts = [s.strip() for s in fmts.split(",") if s.strip()]
    if not isinstance(fmts, list):
        raise SpecError("field 'format' must be a string or a list")
    for fmt in fmts:
        if fmt not in ("json", "csv", "svg"):
            raise SpecError(f"unknown field 'format.{fmt}'")
    grid_N = doc.get("grid_N", DEFAULT_CONFIG.grid_N)
    if not isinstance(grid_N, int) or isinstance(grid_N, bool):
        raise SpecError("field 'grid_N' must be an integer")
    try:
        ToleranceConfig(grid_N=grid_N)
    except ValueError as exc:
        raise SpecError(f"field 'grid_N': {exc}") from None
    tol = doc.get("tol", 1e-6)
    if (not isinstance(tol, (int, float)) or isinstance(tol, bool)
            or not 0 < tol < math.inf):
        raise SpecError("field 'tol' must be a finite positive number")
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise SpecError("field 'out' must be a string")
    return ExperimentSpec(cmd=cmd, params=params, grid_N=grid_N,
                          tol=float(tol), formats=tuple(fmts), out=out)


def _reject_constant(name):
    raise SpecError(f"spec is not valid JSON: {name} is not a number")


def _read_spec(path):
    """The parsed JSON document of a spec file.  NaN and Infinity, which
    Python's json reader accepts, are rejected anywhere in it."""
    if not os.path.exists(path):
        raise SpecError(f"spec file {path!r} does not exist")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec is not valid JSON: {exc}") from exc


def load_spec(path) -> ExperimentSpec:
    """Read and validate a spec file (or an already-parsed dict)."""
    return _validate_spec_dict(path if isinstance(path, dict) else _read_spec(path))


# ---------------------------------------------------------------------------
# object builders (map / field / action specs)


def _require_keys(obj: dict, allowed, path: str):
    for key in obj:
        if key not in allowed:
            raise SpecError(f"unknown field '{path}.{key}'")


def _build_interval_map(obj, path: str):
    if obj is None:
        return Moebius(2.0)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpecError(f"field '{path}' must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "moebius":
        _require_keys(obj, ("kind", "a"), path)
        return Moebius(float(obj.get("a", 2.0)))
    if kind == "identity":
        _require_keys(obj, ("kind",), path)
        return identity()
    if kind == "flow":
        _require_keys(obj, ("kind", "family", "a", "lam", "t"), path)
        return FlowTime(_build_field(obj, path), float(obj.get("t", 1.0)))
    if kind == "bump":
        _require_keys(obj, ("kind", "base", "center", "width", "amp"), path)
        base = _build_interval_map(obj.get("base"), path + ".base")
        bump = Bump(center=float(obj.get("center", 0.5)),
                    width=float(obj.get("width", 0.25)),
                    amplitude=float(obj.get("amp", 0.05)))
        return BumpPerturbation(base, [bump])
    if kind == "compose":
        _require_keys(obj, ("kind", "maps"), path)
        maps = obj.get("maps")
        if not isinstance(maps, list) or not maps:
            raise SpecError(f"field '{path}.maps' must be a non-empty list")
        out = _build_interval_map(maps[0], f"{path}.maps[0]")
        for i, sub in enumerate(maps[1:], start=1):
            out = compose(out, _build_interval_map(sub, f"{path}.maps[{i}]"))
        return out
    if kind == "inverse":
        _require_keys(obj, ("kind", "of"), path)
        return inverse(_build_interval_map(obj.get("of"), path + ".of"))
    if kind == "iterate":
        _require_keys(obj, ("kind", "of", "n"), path)
        return iterate(_build_interval_map(obj.get("of"), path + ".of"),
                       int(obj.get("n", 2)))
    raise SpecError(f"unknown field '{path}.kind' value {kind!r}")


def _build_field(obj, path: str):
    if obj is None:
        return moebius_field(2.0)
    if not isinstance(obj, dict):
        raise SpecError(f"field '{path}' must be an object")
    family = obj.get("family", "moebius")
    if family == "moebius":
        return moebius_field(float(obj.get("a", 2.0)))
    if family in AnalyticField.FAMILIES:
        return AnalyticField(family, float(obj.get("lam", math.log(2.0))))
    raise SpecError(f"unknown field '{path}.family' value {family!r}")


def _conjugated_rotation(alpha: float, amp: float, freq: int,
                         cfg: ToleranceConfig):
    """h R_alpha h^-1 with h(x) = x + amp sin(2 pi freq x) / (2 pi freq)."""
    if abs(amp) >= 1.0:
        raise SpecError("conjugated rotation needs |amp| < 1")
    x = np.linspace(0.0, 1.0, cfg.grid_N + 1)
    w = 2.0 * math.pi * freq
    disp = amp * np.sin(w * x) / w
    logd = np.log1p(amp * np.cos(w * x))
    h = GridMap(x + disp, logd, "circle")
    return compose(h, compose(Rotation(alpha), inverse(h)))


def _build_circle_map(obj, path: str, cfg: ToleranceConfig):
    if obj is None:
        obj = {"kind": "conjugated_rotation"}
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpecError(f"field '{path}' must be an object with a 'kind'")
    kind = obj["kind"]
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    if kind == "rotation":
        _require_keys(obj, ("kind", "alpha"), path)
        return Rotation(float(obj.get("alpha", golden)))
    if kind == "conjugated_rotation":
        _require_keys(obj, ("kind", "alpha", "amp", "freq"), path)
        return _conjugated_rotation(float(obj.get("alpha", golden)),
                                    float(obj.get("amp", 0.2)),
                                    int(obj.get("freq", 1)), cfg)
    raise SpecError(f"unknown field '{path}.kind' value {kind!r}")


def _build_action(obj, path: str, cfg: ToleranceConfig) -> ActionTuple:
    if obj is None:
        obj = {"preset": "two_component"}
    if not isinstance(obj, dict):
        raise SpecError(f"field '{path}' must be an object")
    if "preset" in obj:
        _require_keys(obj, ("preset",), path)
        name = obj["preset"]
        if name == "two_component":
            return example_two_component_action()
        if name == "moebius_pair":
            X = moebius_field(2.0)
            return ActionTuple(generators=(FlowTime(X, 1.0),
                                           FlowTime(X, math.sqrt(2.0))))
        if name == "circle_pair":
            golden = (math.sqrt(5.0) - 1.0) / 2.0
            f = _conjugated_rotation(golden, 0.2, 1, cfg)
            return ActionTuple(generators=(f,))
        raise SpecError(f"unknown field '{path}.preset' value {name!r}")
    _require_keys(obj, ("generators", "circle"), path)
    gens = obj.get("generators")
    if not isinstance(gens, list) or not gens:
        raise SpecError(f"field '{path}.generators' must be a non-empty list")
    circle = bool(obj.get("circle", False))
    built = []
    for i, g in enumerate(gens):
        sub = f"{path}.generators[{i}]"
        built.append(_build_circle_map(g, sub, cfg) if circle
                     else _build_interval_map(g, sub))
    return ActionTuple(generators=tuple(built))


# ---------------------------------------------------------------------------
# serialization helpers


def _sanitize(value):
    """JSON-safe, deterministic view of report values."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [_sanitize(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {}
        for f in dataclasses.fields(value):
            if not f.repr:
                continue  # non-serializable attached objects
            out[f.name] = _sanitize(getattr(value, f.name))
        return out
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value
    return repr(value)


def _series(columns, rows, xlabel, ylabel) -> dict:
    return {"columns": columns, "rows": rows, "xlabel": xlabel, "ylabel": ylabel}


def _violations(ok, check: str, detail: str) -> list:
    return [] if ok else [{"check": check, "detail": detail}]


# ---------------------------------------------------------------------------
# command implementations


def _cmd_szekeres(spec: ExperimentSpec, cfg: ToleranceConfig):
    f = _build_interval_map(spec.params["f"], "params.f")
    X = szekeres_field(f, cfg)
    n = int(spec.params["samples"])
    xs = np.linspace(0.0, 1.0, max(n, 3))
    vals = X.X(xs)
    report = {"diagnostics": X.diagnostics(),
              "edge_rates": list(X.edge_rates())}
    fspec = spec.params["f"]
    if fspec is None or (isinstance(fspec, dict) and fspec.get("kind") == "moebius"):
        a = float(fspec.get("a", 2.0)) if isinstance(fspec, dict) else 2.0
        interior = (xs >= 0.05) & (xs <= 0.95)
        oracle = -math.log(a) * xs * (1.0 - xs)
        report["oracle_sup_gap"] = float(
            np.max(np.abs(vals[interior] - oracle[interior])))
    series = {"field": _series(["x", "X"],
                               [[float(a), float(b)] for a, b in zip(xs, vals)],
                               "x", "X(x)")}
    return report, series, []


def _cmd_flow(spec: ExperimentSpec, cfg: ToleranceConfig):
    X = _build_field(spec.params["field"], "params.field")
    t = float(spec.params["t"])
    s = float(spec.params["s"])
    res = flow_group_residual(X, s, t, cfg)
    xs = np.linspace(0.0, 1.0, 257)
    ft = FlowTime(X, t)
    report = {"t": t, "s": s, "group_residual": res}
    violations = _violations(res <= spec.tol, "flow_group_law",
                             f"residual {res} exceeds tol {spec.tol}")
    series = {"time_map": _series(["x", "f_t"], [[float(a), float(b)] for a, b
                                                 in zip(xs, ft.value(xs))],
                                  "x", "flow(x, t)")}
    return report, series, violations


def _cmd_metrics(spec: ExperimentSpec, cfg: ToleranceConfig):
    f = _build_interval_map(spec.params["f"], "params.f")
    g = _build_interval_map(spec.params["g"], "params.g")
    r = str(spec.params["r"])
    d = metric(f, g, r, starred=False, cfg=cfg)
    ds = metric(f, g, r, starred=True, cfg=cfg)
    report = {"r": r, "d": d, "d_star": ds}
    return report, {}, _violations(ds <= d + 1e-9 and d <= 2.0 * ds + 1e-9,
                                   "metric_star_sandwich", f"d*={ds}, d={d}")


def _cmd_rot(spec: ExperimentSpec, cfg: ToleranceConfig):
    f = _build_circle_map(spec.params["f"], "params.f", cfg)
    rn = rotation_number(f, cfg)
    return dataclasses.asdict(rn), {}, []


def _cmd_vinf(spec: ExperimentSpec, cfg: ToleranceConfig):
    f = _build_interval_map(spec.params["f"], "params.f")
    sched = spec.params["schedule"]
    if sched is None:
        ve = asymptotic_variation(f, cfg=cfg)
    else:
        ve = asymptotic_variation(f, schedule=tuple(int(n) for n in sched),
                                  cfg=cfg)
    report = {"limit": ve.limit, "uncertainty": ve.uncertainty,
              "lower_bound": ve.lower_bound}
    series = {"var_over_n": _series(["n", "var_over_n"],
                                    [[int(n), float(v)] for n, v in ve.pairs],
                                    "n", "var(log Df^n)/n")}
    return report, series, []


def _cmd_mather(spec: ExperimentSpec, cfg: ToleranceConfig):
    f = _build_interval_map(spec.params["f"], "params.f")
    chk = mather_inequality_check(f, cfg)
    return chk, {}, _violations(chk["holds"], "mather_inequality",
                                f"slack {chk['slack']}")


def _cmd_drift(spec: ExperimentSpec, cfg: ToleranceConfig):
    act = _build_action(spec.params["action"], "params.action", cfg)
    if act.kind != "interval":
        raise SpecError("field 'params.action' must be an interval action")
    f_index = int(spec.params["f_index"])
    if not 0 <= f_index < act.d:
        raise SpecError(f"field 'params.f_index' must be in [0, {act.d}), "
                        f"got {f_index}")
    out = coboundary_drift(act, f_index=f_index, n=int(spec.params["n"]), cfg=cfg)
    return out, {}, _violations(out["lower_bound_holds"], "drift_lower_bound",
                                f"defect {out['defect']} < drift {out['drift']}")


def _cmd_herman(spec: ExperimentSpec, cfg: ToleranceConfig):
    act = _build_action(spec.params["action"] or {"preset": "circle_pair"},
                        "params.action", cfg)
    if act.kind != "circle":
        raise SpecError("field 'params.action' must be a circle action")
    rows = []
    for n in spec.params["ns"]:
        rep = herman_average(act, int(n), cfg)
        rows.append([int(n), float(max(rep.rotation_distances))])
    report = {"ns": [r[0] for r in rows],
              "distances": [r[1] for r in rows],
              "monotone": bool(all(a > b for (_, a), (_, b)
                                   in zip(rows, rows[1:])))}
    series = {"herman": _series(["n", "distance"], rows, "n",
                                "sup distance to rotation")}
    return report, series, []


def _cmd_gmconj(spec: ExperimentSpec, cfg: ToleranceConfig):
    act = _build_action(spec.params["action"] or {"preset": "moebius_pair"},
                        "params.action", cfg)
    rows = []
    violations = []
    last = None
    for n in spec.params["ns"]:
        rep = geometric_mean_conjugacy(act, n=int(n), cfg=cfg)
        rows.append([int(n), float(max(rep.vars_conjugate)),
                     float(max(rep.var_bounds))])
        for i, s in enumerate(rep.slacks):
            violations += _violations(s >= 0, "gm_conjugacy_bound",
                                      f"n={n} generator {i} slack {s}")
        last = rep
    report = {"rows": rows,
              "vars_conjugate": list(last.vars_conjugate),
              "var_bounds": list(last.var_bounds),
              "slacks": list(last.slacks)}
    series = {"gmconj": _series(["n", "var_conjugate", "bound"], rows, "n",
                                "var(log D conj)")}
    return report, series, violations


def _cmd_interp(spec: ExperimentSpec, cfg: ToleranceConfig):
    act = _build_action(spec.params["action"] or {"preset": "moebius_pair"},
                        "params.action", cfg)
    if act.kind != "interval":
        raise SpecError("field 'params.action' must be an interval action")
    phi_spec = spec.params["phi"] or {
        "kind": "bump", "base": {"kind": "identity"},
        "center": 0.5, "width": 0.5, "amp": 0.1}
    phi = _build_interval_map(phi_spec, "params.phi")
    rho1 = ActionTuple(generators=tuple(
        compose(phi, compose(g, inverse(phi))) for g in act.generators))
    step = interpolation_path(act, rho1, phi, float(spec.params["t"]),
                              r=str(spec.params["r"]), cfg=cfg)
    cert = step.certificate
    return {"t": step.t, "certificate": cert}, {}, _violations(
        cert["holds"], "interpolation_bound", json.dumps(_sanitize(cert)))


def _cmd_regularize(spec: ExperimentSpec, cfg: ToleranceConfig):
    X = _build_field(spec.params["field"], "params.field")
    reg = regularize_flow(X, r=str(spec.params["r"]), cfg=cfg)
    violations = []
    for key in ("deriv_identity_ok", "var_ok"):
        violations += _violations(reg.checks[key], f"regularize.{key}",
                                  json.dumps(_sanitize(reg.checks)))
    return {"checks": reg.checks}, {}, violations


def _cmd_classify(spec: ExperimentSpec, cfg: ToleranceConfig):
    act = _build_action(spec.params["action"], "params.action", cfg)
    dec = classify_action(act, cfg)
    # _sanitize writes a fixed interval of the parabolic set as a pair and
    # a Component as its repr fields
    report = {"parabolic_set": dec.parabolic_set, "components": dec.components}
    return report, {}, []


def _cmd_deform(spec: ExperimentSpec, cfg: ToleranceConfig):
    act = _build_action(spec.params["action"], "params.action", cfg)
    t = float(spec.params["t"])
    action, cert = deform_action(act, t, r=str(spec.params["r"]), cfg=cfg)
    violations = _violations(cert["holds"], "deformation_certificate", json.dumps(
        _sanitize([row for row in cert["samples"] if not row["ok"]])))
    rows = [[row["t"], row["d_star"], row["commutation"]]
            for row in cert["samples"]]
    trivial = (t == 1.0 and all(
        getattr(g, "a", None) == 1.0 for g in action.generators))
    report = {"t": t, "certificate": cert, "trivial": bool(trivial)}
    series = {"path": _series(["t", "d_star", "commutation"], rows, "t",
                              "d*_r to identity")}
    return report, series, violations


def _cmd_staircase(spec: ExperimentSpec, cfg: ToleranceConfig):
    tree = build_staircase(int(spec.params["depth"]),
                           Fraction(spec.params["M"]))
    rep = staircase_report(tree, int(spec.params["n"]))
    return rep, {}, _violations(rep.holds, "staircase_bounds", "see report")


def _cmd_bvdemo(spec: ExperimentSpec, cfg: ToleranceConfig):
    tree = build_staircase(int(spec.params["depth"]),
                           Fraction(spec.params["M"]))
    n = int(spec.params["n"])
    rows = []
    for m in range(1, min(n, tree.depth - 1) + 1):
        rep = bv_group_demo(tree, m)
        rows.append([m, rep.d1_phi, rep.d1pbv_left])
    rep = bv_group_demo(tree, n)
    report = {"n": n, "d1_phi": rep.d1_phi, "d1pbv_left": rep.d1pbv_left,
              "grid_slack": rep.grid_slack}
    series = {"bvdemo": _series(["n", "d1_phi", "d1pbv_left"], rows, "n", "distance")}
    return report, series, []


def _cmd_hyperbolic(spec: ExperimentSpec, cfg: ToleranceConfig):
    rep = hyperbolic_example(int(spec.params["N"]))
    report = {
        "N": rep.N,
        "partial_sum_g": rep.partial_sum_g,
        "basel_tail": rep.basel_tail,
        "partial_sum_root": rep.partial_sum_root,
        "harmonic_N": rep.harmonic_N,
        "endpoint_residual": rep.endpoint_residual,
        "annulus_map_residual": rep.annulus_map_residual,
        "sampled_var_gap": rep.sampled_var_gap,
    }
    rows = [[k + 1, float(v), float(w)] for k, (v, w) in
            enumerate(zip(rep.annulus_var_g, rep.annulus_var_root))]
    series = {"annuli": _series(["k", "var_g", "var_root"], rows, "annulus k",
                                "var(log D)")}
    return report, series, []


def _cmd_sergeraert(spec: ExperimentSpec, cfg: ToleranceConfig):
    rep = sergeraert_check(int(spec.params["k"]))
    return dataclasses.asdict(rep), {}, []


# every command: its runner and its parameters with their defaults, in the
# order of the subcommands
_COMMANDS = {
    "szekeres": (_cmd_szekeres, {"f": None, "samples": 257}),
    "flow": (_cmd_flow, {"field": None, "t": 1.0, "s": 0.5}),
    "metrics": (_cmd_metrics, {"f": None, "g": None, "r": "1"}),
    "rot": (_cmd_rot, {"f": None}),
    "vinf": (_cmd_vinf, {"f": None, "schedule": None}),
    "mather": (_cmd_mather, {"f": None}),
    "drift": (_cmd_drift, {"action": None, "f_index": 0, "n": 32}),
    "herman": (_cmd_herman, {"action": None, "ns": [4, 16, 64]}),
    "gmconj": (_cmd_gmconj, {"action": None, "ns": [8]}),
    "interp": (_cmd_interp, {"action": None, "phi": None, "t": 0.5, "r": "1+ac"}),
    "regularize": (_cmd_regularize, {"field": None, "r": "1+ac"}),
    "classify": (_cmd_classify, {"action": None}),
    "deform": (_cmd_deform, {"action": None, "t": 1.0, "r": "1+ac"}),
    "staircase": (_cmd_staircase, {"depth": 8, "M": 4, "n": 3}),
    "bvdemo": (_cmd_bvdemo, {"depth": 8, "M": 4, "n": 3}),
    "hyperbolic": (_cmd_hyperbolic, {"N": 1000}),
    "sergeraert": (_cmd_sergeraert, {"k": 3}),
}
COMMANDS = tuple(_COMMANDS)


def run_command(spec: ExperimentSpec) -> dict:
    """Execute a validated spec; returns the report dict.

    The report always contains ``command``, ``violations`` (possibly
    empty) and ``exit_code`` (0 ok / 2 certificate falsified).  Errors
    propagate as exceptions (mapped to exit code 1 by ``main``)."""
    cfg = spec.config
    payload, series, violations = _COMMANDS[spec.cmd][0](spec, cfg)
    report = {
        "command": spec.cmd,
        "grid_N": spec.grid_N,
        "tol": spec.tol,
        "report": _sanitize(payload),
        "series": _sanitize(series),
        "violations": _sanitize(violations),
        "exit_code": 2 if violations else 0,
    }
    return report


# ---------------------------------------------------------------------------
# emission


def _svg_line_plot(series: dict, title: str) -> str:
    """Minimal deterministic SVG: one polyline per numeric y-column,
    labeled axes, fixed 640x480 canvas."""
    width, height = 640, 480
    ml, mr, mt, mb = 70, 20, 30, 50
    rows = series.get("rows", [])
    cols = series.get("columns", [])
    xlabel = series.get("xlabel", cols[0] if cols else "x")
    ylabel = series.get("ylabel", "value")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="20" text-anchor="middle" '
        f'font-size="14">{title}</text>',
        # axes
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" '
        f'y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" '
        f'stroke="black"/>',
        f'<text x="{(ml + width - mr) // 2}" y="{height - 10}" '
        f'text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="15" y="{(mt + height - mb) // 2}" font-size="12" '
        f'transform="rotate(-90 15 {(mt + height - mb) // 2})" '
        f'text-anchor="middle">{ylabel}</text>',
    ]
    numeric = [r for r in rows
               if all(isinstance(v, (int, float)) for v in r[:2])]
    if numeric:
        xs = [float(r[0]) for r in numeric]
        n_ycols = max(len(r) for r in numeric) - 1
        palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
        all_ys = [float(v) for r in numeric for v in r[1:]]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(all_ys), max(all_ys)
        if x1 == x0:
            x1 = x0 + 1.0
        if y1 == y0:
            y1 = y0 + 1.0

        def sx(v):
            return ml + (v - x0) / (x1 - x0) * (width - ml - mr)

        def sy(v):
            return height - mb - (v - y0) / (y1 - y0) * (height - mt - mb)

        for j in range(n_ycols):
            pts = " ".join(f"{sx(float(r[0])):.2f},{sy(float(r[1 + j])):.2f}"
                           for r in numeric if len(r) > 1 + j)
            parts.append(f'<polyline points="{pts}" fill="none" '
                         f'stroke="{palette[j % len(palette)]}" '
                         f'stroke-width="1.5"/>')
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            xv = x0 + frac * (x1 - x0)
            yv = y0 + frac * (y1 - y0)
            parts.append(f'<text x="{sx(xv):.1f}" y="{height - mb + 16}" '
                         f'text-anchor="middle" font-size="10">{xv:.4g}</text>')
            parts.append(f'<text x="{ml - 6}" y="{sy(yv):.1f}" '
                         f'text-anchor="end" font-size="10">{yv:.4g}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def emit_report(report: dict, target: str, formats=("json",)) -> list:
    """Write the report under ``target``; returns the written paths.

    JSON is always written (sorted keys, no timestamps: byte-stable).
    CSV files are written per series when requested; SVG line plots
    likewise.  A sidecar ``<name>.meta.json`` carries provenance that is
    allowed to vary (package version, spec digest)."""
    os.makedirs(target, exist_ok=True)
    name = report.get("command", "report")
    written = []
    payload = json.dumps(report, sort_keys=True, indent=2)
    path = os.path.join(target, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload + "\n")
    written.append(path)
    meta = {"tool": "difflab", "package_version": __version__,
            "spec_digest": hashlib.sha256(payload.encode()).hexdigest()}
    mpath = os.path.join(target, f"{name}.meta.json")
    with open(mpath, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    written.append(mpath)
    series = report.get("series", {})
    if "csv" in formats:
        for sname, sdata in series.items():
            cpath = os.path.join(target, f"{name}.{sname}.csv")
            with open(cpath, "w", encoding="utf-8") as fh:
                fh.write(",".join(sdata.get("columns", [])) + "\n")
                for row in sdata.get("rows", []):
                    fh.write(",".join(repr(v) if isinstance(v, float)
                                      else str(v) for v in row) + "\n")
            written.append(cpath)
    if "svg" in formats:
        for sname, sdata in series.items():
            spath = os.path.join(target, f"{name}.{sname}.svg")
            with open(spath, "w", encoding="utf-8") as fh:
                fh.write(_svg_line_plot(sdata, f"{name}: {sname}") + "\n")
            written.append(spath)
    return written


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="difflab",
        description="numerical laboratory for interval and circle "
                    "diffeomorphism groups")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd)
        p.add_argument("--spec", default=None,
                       help="JSON spec file (defaults applied if omitted)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--grid-N", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--format", default=None,
                       help="comma-separated: json,csv,svg")
    args = parser.parse_args(argv)
    try:
        if args.spec:
            search = os.environ.get("DIFFLAB_CONFIG_PATH", "")
            path = args.spec
            if not os.path.exists(path) and search:
                for d in search.split(os.pathsep):
                    cand = os.path.join(d, args.spec)
                    if os.path.exists(cand):
                        path = cand
                        break
            doc = _read_spec(path)
        else:
            doc = {"cmd": args.cmd}
        # the flags override the document's fields and are validated with it
        flags = {"grid_N": args.grid_N, "tol": args.tol,
                 "format": args.format, "out": args.out}
        if isinstance(doc, dict):
            doc = {**doc, **{k: v for k, v in flags.items() if v is not None}}
        spec = _validate_spec_dict(doc)
        if spec.cmd != args.cmd:
            raise SpecError(
                f"spec cmd {spec.cmd!r} does not match subcommand "
                f"{args.cmd!r}")
        report = run_command(spec)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error [{type(exc).__module__}.{type(exc).__name__}]: {exc}",
              file=sys.stderr)
        return 1
    if spec.out:
        emit_report(report, spec.out, spec.formats)
    else:
        print(json.dumps(report, sort_keys=True, indent=2))
    return int(report["exit_code"])


if __name__ == "__main__":
    sys.exit(main())
