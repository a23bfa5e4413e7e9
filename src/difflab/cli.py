"""Command-line front end: spec ingestion, dispatch, report emission.

A run is described by a JSON spec::

    {"cmd": "vinf", "params": {"f": {"kind": "moebius", "a": 2}}}

``load_spec`` validates the document (unknown fields and values of the
wrong type are rejected with their dotted path; every default is written
once, in the tables below), ``run_command`` dispatches to the library and
returns a plain-dict report, and ``emit_report`` writes deterministic JSON
plus optional CSV series and hand-rolled SVG line plots.  Exit codes: 0 on
success, 2 when a certificate in the report is falsified (the report
carries a machine-readable ``violations`` array either way), 1 on errors.

Reports are byte-stable: identical spec + config produce identical JSON
payloads (no timestamps; provenance lives in a sidecar metadata file).
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .gridfn import ABS_TOL, DEFAULT_CONFIG, ToleranceConfig
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
    _is_identity,
)
from .szekeres import (
    AnalyticField,
    FlowTime,
    flow_group_residual,
    moebius_field,
    szekeres_field,
)
from .invariants import (
    DEFAULT_SCHEDULE,
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
    params = _read(doc.get("params", {}), _COMMANDS[cmd][1], "params")
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
# the spec reader


def _read(obj, schema: dict, path: str) -> dict:
    """The fields of the spec object obj at the dotted path, read against
    schema = {key: default}.

    Unknown keys are refused and a missing key takes a copy of its default.
    A given value must have its default's type: an int default takes a JSON
    integer, a float default an integer or a finite number (stored as a
    float), a str default a string, a bool default a boolean, an object
    default an object (its builder reads the fields), and a list default a
    non-empty list whose items follow the rule of the default's first item.
    A boolean is never a number."""
    if not isinstance(obj, dict):
        raise SpecError(f"field '{path}' must be an object")
    for key in obj:
        if key not in schema:
            raise SpecError(f"unknown field '{path}.{key}'")
    return {k: _value(obj[k], d, f"{path}.{k}") if k in obj else copy.deepcopy(d)
            for k, d in schema.items()}


def _value(v, default, path: str):
    """The spec value v checked against the type of its default."""
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    if isinstance(default, bool):
        ok, want = isinstance(v, bool), "a boolean"
    elif isinstance(default, int):
        ok, want = number and isinstance(v, int), "an integer"
    elif isinstance(default, float):
        # abs(v) <= max float also refuses NaN, infinities and huge integers
        ok, want = number and abs(v) <= sys.float_info.max, "a finite number"
        if ok:
            return float(v)
    elif isinstance(default, str):
        ok, want = isinstance(v, str), "a string"
    elif isinstance(default, dict):
        ok, want = isinstance(v, dict), "an object"
    else:
        if isinstance(v, list) and v:
            return [_value(item, default[0], f"{path}[{i}]")
                    for i, item in enumerate(v)]
        ok, want = False, "a non-empty list"
    if not ok:
        raise SpecError(f"field '{path}' must be {want}, "
                        f"got {json.dumps(v, default=repr)}")
    return v


# ---------------------------------------------------------------------------
# default tables and object builders (map / field / action specs)


_MOEBIUS = {"kind": "moebius", "a": 2.0}
_FIELD = {"family": "moebius", "a": _MOEBIUS["a"], "lam": math.log(2.0)}
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# every map kind with the defaults of its fields
_INTERVAL_MAPS = {
    "moebius": _MOEBIUS,
    "identity": {"kind": "identity"},
    "flow": {"kind": "flow", **_FIELD, "t": 1.0},
    "bump": {"kind": "bump", "base": _MOEBIUS,
             "center": 0.5, "width": 0.25, "amp": 0.05},
    "compose": {"kind": "compose", "maps": [_MOEBIUS]},
    "inverse": {"kind": "inverse", "of": _MOEBIUS},
    "iterate": {"kind": "iterate", "of": _MOEBIUS, "n": 2},
}
_CIRCLE_MAPS = {
    "rotation": {"kind": "rotation", "alpha": _GOLDEN},
    "conjugated_rotation": {"kind": "conjugated_rotation", "alpha": _GOLDEN,
                            "amp": 0.2, "freq": 1},
}
# an action is a preset or a list of generators
_TWO_COMPONENT = {"preset": "two_component"}
_GENERATORS = {"generators": [_MOEBIUS], "circle": False}
_CIRCLE_GENERATORS = {"generators": [_CIRCLE_MAPS["rotation"]], "circle": True}


def _read_kind(obj, kinds: dict, path: str) -> dict:
    """A map spec's fields, read with the schema of its kind."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpecError(f"field '{path}' must be an object with a 'kind'")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise SpecError(f"unknown field '{path}.kind' value {kind!r}")
    return _read(obj, kinds[kind], path)


def _build_interval_map(obj, path: str):
    p = _read_kind(obj, _INTERVAL_MAPS, path)
    kind = p["kind"]
    if kind == "moebius":
        return Moebius(p["a"])
    if kind == "identity":
        return identity()
    if kind == "flow":
        return FlowTime(_field(p, path), p["t"])
    if kind == "bump":
        bump = Bump(center=p["center"], width=p["width"], amplitude=p["amp"])
        return BumpPerturbation(_build_interval_map(p["base"], path + ".base"),
                                [bump])
    if kind == "compose":
        return functools.reduce(compose, (
            _build_interval_map(sub, f"{path}.maps[{i}]")
            for i, sub in enumerate(p["maps"])))
    of = _build_interval_map(p["of"], path + ".of")
    return inverse(of) if kind == "inverse" else iterate(of, p["n"])


def _field(p: dict, path: str):
    """The field of the read fields p: family, a and lam."""
    if p["family"] == "moebius":
        return moebius_field(p["a"])
    if p["family"] in AnalyticField.FAMILIES:
        return AnalyticField(p["family"], p["lam"])
    raise SpecError(f"unknown field '{path}.family' value {p['family']!r}")


def _build_field(obj, path: str):
    return _field(_read(obj, _FIELD, path), path)


def _build_circle_map(obj, path: str, cfg: ToleranceConfig):
    p = _read_kind(obj, _CIRCLE_MAPS, path)
    if p["kind"] == "rotation":
        return Rotation(p["alpha"])
    # h R_alpha h^-1 with h(x) = x + amp sin(2 pi freq x) / (2 pi freq)
    amp, freq = p["amp"], p["freq"]
    if abs(amp) >= 1.0:
        raise SpecError(f"field '{path}.amp' must be in (-1, 1), got {amp}")
    if freq == 0:
        raise SpecError(f"field '{path}.freq' must be a non-zero integer, got 0")
    x = np.linspace(0.0, 1.0, cfg.grid_N + 1)
    w = 2.0 * math.pi * freq
    disp = amp * np.sin(w * x) / w
    logd = np.log1p(amp * np.cos(w * x))
    h = GridMap(x + disp, logd, "circle")
    return compose(h, compose(Rotation(p["alpha"]), inverse(h)))


def _build_action(obj, path: str, cfg: ToleranceConfig) -> ActionTuple:
    if isinstance(obj, dict) and "preset" in obj:
        name = _read(obj, _TWO_COMPONENT, path)["preset"]
        if name == "two_component":
            return example_two_component_action()
        if name == "moebius_pair":
            # the default field at times 1 and sqrt 2
            X = _field(_FIELD, path)
            return ActionTuple(generators=(FlowTime(X, 1.0),
                                           FlowTime(X, math.sqrt(2.0))))
        if name == "circle_pair":
            # the default conjugated rotation as a one-generator action
            return ActionTuple(generators=(_build_circle_map(
                _CIRCLE_MAPS["conjugated_rotation"], path, cfg),))
        raise SpecError(f"unknown field '{path}.preset' value {name!r}")
    circle = isinstance(obj, dict) and obj.get("circle") is True
    p = _read(obj, _CIRCLE_GENERATORS if circle else _GENERATORS, path)
    built = []
    for i, g in enumerate(p["generators"]):
        sub = f"{path}.generators[{i}]"
        built.append(_build_circle_map(g, sub, cfg) if p["circle"]
                     else _build_interval_map(g, sub))
    return ActionTuple(generators=tuple(built))


def _read_action(spec: ExperimentSpec, cfg: ToleranceConfig, kind=None):
    """The action of params.action, refused unless it is of the given kind
    (either kind when None)."""
    act = _build_action(spec.params["action"], "params.action", cfg)
    if kind not in (None, act.kind):
        article = "an" if kind == "interval" else "a"
        raise SpecError(f"field 'params.action' must be {article} {kind} action")
    return act


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
    if spec.params["samples"] < 3:
        raise SpecError("field 'params.samples' must be an integer >= 3, "
                        f"got {spec.params['samples']}")
    X = szekeres_field(f, cfg)
    xs = np.linspace(0.0, 1.0, spec.params["samples"])
    vals = X.X(xs)
    report = {"diagnostics": X.diagnostics(),
              "edge_rates": list(X.edge_rates())}
    if isinstance(f, Moebius):
        interior = (xs >= 0.05) & (xs <= 0.95)
        oracle = -math.log(f.a) * xs * (1.0 - xs)
        report["oracle_sup_gap"] = float(
            np.max(np.abs(vals[interior] - oracle[interior])))
    series = {"field": _series(["x", "X"], np.column_stack((xs, vals)),
                               "x", "X(x)")}
    return report, series, []


def _cmd_flow(spec: ExperimentSpec, cfg: ToleranceConfig):
    X = _build_field(spec.params["field"], "params.field")
    t, s = spec.params["t"], spec.params["s"]
    res = flow_group_residual(X, s, t)
    xs = np.linspace(0.0, 1.0, 257)
    report = {"t": t, "s": s, "group_residual": res}
    violations = _violations(res <= spec.tol, "flow_group_law",
                             f"residual {res} exceeds tol {spec.tol}")
    series = {"time_map": _series(["x", "f_t"], np.column_stack(
        (xs, FlowTime(X, t).value(xs))), "x", "flow(x, t)")}
    return report, series, violations


def _cmd_metrics(spec: ExperimentSpec, cfg: ToleranceConfig):
    f = _build_interval_map(spec.params["f"], "params.f")
    g = _build_interval_map(spec.params["g"], "params.g")
    r = spec.params["r"]
    d = metric(f, g, r, starred=False, cfg=cfg)
    ds = metric(f, g, r, starred=True, cfg=cfg)
    report = {"r": r, "d": d, "d_star": ds}
    return report, {}, _violations(ds <= d + 1e-9 and d <= 2.0 * ds + 1e-9,
                                   "metric_star_sandwich", f"d*={ds}, d={d}")


def _cmd_rot(spec: ExperimentSpec, cfg: ToleranceConfig):
    f = _build_circle_map(spec.params["f"], "params.f", cfg)
    return rotation_number(f), {}, []


def _cmd_vinf(spec: ExperimentSpec, cfg: ToleranceConfig):
    f = _build_interval_map(spec.params["f"], "params.f")
    ve = asymptotic_variation(f, schedule=spec.params["schedule"])
    series = {"var_over_n": _series(["n", "var_over_n"], ve.pairs,
                                    "n", "var(log Df^n)/n")}
    return ve, series, []


def _cmd_mather(spec: ExperimentSpec, cfg: ToleranceConfig):
    f = _build_interval_map(spec.params["f"], "params.f")
    chk = mather_inequality_check(f, cfg)
    return chk, {}, _violations(chk["holds"], "mather_inequality",
                                f"slack {chk['slack']}")


def _cmd_drift(spec: ExperimentSpec, cfg: ToleranceConfig):
    act = _read_action(spec, cfg, "interval")
    f_index = spec.params["f_index"]
    if not 0 <= f_index < act.d:
        raise SpecError(f"field 'params.f_index' must be in [0, {act.d}), "
                        f"got {f_index}")
    out = coboundary_drift(act, f_index=f_index, n=spec.params["n"], cfg=cfg)
    return out, {}, _violations(out["lower_bound_holds"], "drift_lower_bound",
                                f"defect {out['defect']} < drift {out['drift']}")


def _cmd_herman(spec: ExperimentSpec, cfg: ToleranceConfig):
    act = _read_action(spec, cfg, "circle")
    rows = [[n, max(herman_average(act, n, cfg).rotation_distances)]
            for n in spec.params["ns"]]
    # a distance at or below ABS_TOL is rounding noise: converged
    report = {"ns": [r[0] for r in rows],
              "distances": [r[1] for r in rows],
              "monotone": all(b < a or b <= ABS_TOL
                              for (_, a), (_, b) in zip(rows, rows[1:]))}
    series = {"herman": _series(["n", "distance"], rows, "n",
                                "sup distance to rotation")}
    return report, series, []


def _cmd_gmconj(spec: ExperimentSpec, cfg: ToleranceConfig):
    act = _read_action(spec, cfg)
    rows = []
    violations = []
    last = None
    for n in spec.params["ns"]:
        rep = geometric_mean_conjugacy(act, n=n, cfg=cfg)
        rows.append([n, max(rep.vars_conjugate), max(rep.var_bounds)])
        for i, s in enumerate(rep.slacks):
            violations += _violations(s >= 0, "gm_conjugacy_bound",
                                      f"n={n} generator {i} slack {s}")
        last = rep
    report = {"rows": rows,
              "vars_conjugate": last.vars_conjugate,
              "var_bounds": last.var_bounds,
              "slacks": last.slacks}
    series = {"gmconj": _series(["n", "var_conjugate", "bound"], rows, "n",
                                "var(log D conj)")}
    return report, series, violations


def _cmd_interp(spec: ExperimentSpec, cfg: ToleranceConfig):
    act = _read_action(spec, cfg, "interval")
    phi = _build_interval_map(spec.params["phi"], "params.phi")
    rho1 = ActionTuple(generators=tuple(
        compose(phi, compose(g, inverse(phi))) for g in act.generators))
    step = interpolation_path(act, rho1, phi, spec.params["t"],
                              r=spec.params["r"], cfg=cfg)
    cert = step.certificate
    return step, {}, _violations(cert["holds"], "interpolation_bound",
                                 json.dumps(_sanitize(cert)))


def _cmd_regularize(spec: ExperimentSpec, cfg: ToleranceConfig):
    X = _build_field(spec.params["field"], "params.field")
    reg = regularize_flow(X, r=spec.params["r"], cfg=cfg)
    violations = []
    for key in ("deriv_identity_ok", "var_ok"):
        violations += _violations(reg.checks[key], f"regularize.{key}",
                                  json.dumps(_sanitize(reg.checks)))
    return reg, {}, violations


def _cmd_classify(spec: ExperimentSpec, cfg: ToleranceConfig):
    # _sanitize writes a fixed interval of the parabolic set as a pair and
    # a Component as its repr fields
    act = _read_action(spec, cfg, "interval")
    return classify_action(act, cfg), {}, []


def _cmd_deform(spec: ExperimentSpec, cfg: ToleranceConfig):
    act = _read_action(spec, cfg, "interval")
    t = spec.params["t"]
    action, cert = deform_action(act, t, r=spec.params["r"], cfg=cfg)
    violations = _violations(cert["holds"], "deformation_certificate", json.dumps(
        _sanitize([row for row in cert["samples"] if not row["ok"]])))
    rows = [[row["t"], row["d_star"], row["commutation"]]
            for row in cert["samples"]]
    trivial = t == 1.0 and all(map(_is_identity, action.generators))
    report = {"t": t, "certificate": cert, "trivial": trivial}
    series = {"path": _series(["t", "d_star", "commutation"], rows, "t",
                              "d*_r to identity")}
    return report, series, violations


def _cmd_staircase(spec: ExperimentSpec, cfg: ToleranceConfig):
    tree = build_staircase(spec.params["depth"], Fraction(spec.params["M"]))
    rep = staircase_report(tree, spec.params["n"])
    return rep, {}, _violations(rep.holds, "staircase_bounds", "see report")


def _cmd_bvdemo(spec: ExperimentSpec, cfg: ToleranceConfig):
    tree = build_staircase(spec.params["depth"], Fraction(spec.params["M"]))
    n = spec.params["n"]
    rows = []
    for m in range(1, min(n, tree.depth - 1) + 1):
        rep = bv_group_demo(tree, m)
        rows.append([m, rep.d1_phi, rep.d1pbv_left])
    if not rows or rows[-1][0] != n:
        rep = bv_group_demo(tree, n)
    series = {"bvdemo": _series(["n", "d1_phi", "d1pbv_left"], rows, "n", "distance")}
    return rep, series, []


def _cmd_hyperbolic(spec: ExperimentSpec, cfg: ToleranceConfig):
    rep = hyperbolic_example(spec.params["N"])
    rows = [[k + 1, float(v), float(w)] for k, (v, w) in
            enumerate(zip(rep.annulus_var_g, rep.annulus_var_root))]
    series = {"annuli": _series(["k", "var_g", "var_root"], rows, "annulus k",
                                "var(log D)")}
    return rep, series, []


def _cmd_sergeraert(spec: ExperimentSpec, cfg: ToleranceConfig):
    return sergeraert_check(spec.params["k"]), {}, []


# every command: its runner and its parameters with their defaults, in the
# order of the subcommands
_COMMANDS = {
    "szekeres": (_cmd_szekeres, {"f": _MOEBIUS, "samples": 257}),
    "flow": (_cmd_flow, {"field": _FIELD, "t": 1.0, "s": 0.5}),
    "metrics": (_cmd_metrics, {"f": _MOEBIUS, "g": _MOEBIUS, "r": "1"}),
    "rot": (_cmd_rot, {"f": _CIRCLE_MAPS["conjugated_rotation"]}),
    "vinf": (_cmd_vinf, {"f": _MOEBIUS, "schedule": list(DEFAULT_SCHEDULE)}),
    "mather": (_cmd_mather, {"f": _MOEBIUS}),
    "drift": (_cmd_drift, {"action": _TWO_COMPONENT, "f_index": 0, "n": 32}),
    "herman": (_cmd_herman, {"action": {"preset": "circle_pair"},
                             "ns": [4, 16, 64]}),
    "gmconj": (_cmd_gmconj, {"action": {"preset": "moebius_pair"}, "ns": [8]}),
    "interp": (_cmd_interp, {"action": {"preset": "moebius_pair"},
                             "phi": {"kind": "bump", "base": {"kind": "identity"},
                                     "center": 0.5, "width": 0.5, "amp": 0.1},
                             "t": 0.5, "r": "1+ac"}),
    "regularize": (_cmd_regularize, {"field": _FIELD, "r": "1+ac"}),
    "classify": (_cmd_classify, {"action": _TWO_COMPONENT}),
    "deform": (_cmd_deform, {"action": _TWO_COMPONENT, "t": 1.0, "r": "1+ac"}),
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
