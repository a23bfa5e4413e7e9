"""The benchmark workloads.

Each workload turns a seed into inputs (``build``) and returns its items.
An item computes one result through difflab's public API and checks it
against an oracle; the runner also compares it with the stored reference.
Every call goes through an attribute of ``difflab`` (or ``difflab.cli``)
at call time, so the traced run sees it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
from typing import Callable, NamedTuple

import numpy as np

import difflab as dl
import difflab.cli as cli


class Item(NamedTuple):
    name: str
    run: Callable[[], object]            # -> JSON-compatible result
    check: Callable[[object], list]      # result -> list of oracle failures


class Workload(NamedTuple):
    name: str
    build: Callable[[int, str], list]    # (seed, workdir) -> items
    seed_free: bool                      # the seed does not change results


def jsonable(value):
    """Plain JSON view: dataclasses as dicts of their repr fields, numpy
    scalars and arrays as Python ones.

    The CLI's own report sanitizer does the same job; it is not reused so
    that only cli_defaults exercises the CLI layer."""
    if isinstance(value, (np.generic, np.ndarray)):
        return jsonable(value.tolist())
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value) if f.repr}
    return value


def _problems(*pairs):
    return [msg for ok, msg in pairs if not ok]


# ---------------------------------------------------------------------------
# interval_certify


def _certificate_item(ts):
    def run():
        path = dl.DeformationPath(dl.example_two_component_action())
        return jsonable(path.certificate(ts=ts))

    def check(cert):
        src = cert["source_commutation"]
        out = _problems(
            (cert["holds"], "certificate does not hold"),
            (math.isclose(cert["bound"], 2.0 * cert["source_d_star"],
                          rel_tol=1e-12), "bound != 2 * source d*"),
            ([row["t"] for row in cert["samples"]] == ts, "sampled ts differ"))
        for row in cert["samples"]:
            out += _problems(
                (row["d_star"] <= cert["bound"] + 1e-4, f"t={row['t']}: d* above bound"),
                (row["commutation"] <= 10.0 * src + 1e-9,
                 f"t={row['t']}: commutation above 10x source"))
        return out

    return Item("deformation_certificate", run, check)


def _mather_item(center, width, amplitude):
    def run():
        f = dl.BumpPerturbation(dl.Moebius(2.0),
                                [dl.Bump(center, width, amplitude)])
        return jsonable(dl.mather_inequality_check(f))

    def check(rep):
        return _problems(
            (rep["holds"], "Mather inequality does not hold"),
            (rep["slack"] >= -(rep["vinf_uncertainty"] + 1e-4), "negative slack"),
            (rep["var_logDM"] > 0.01, "bumped map reads as flowable"))

    return Item("mather_bumped", run, check)


def interval_certify(seed: int, workdir: str) -> list:
    rng = random.Random(seed)
    # b(x) - x <= amplitude * width <= 0.025, below x(1-x)/(1+x) >= 0.13 on
    # the support, so Moebius(2) o b stays a contraction: f(x) < x
    center = rng.uniform(0.35, 0.55)
    width = rng.uniform(0.15, 0.25)
    amplitude = rng.uniform(0.06, 0.1)
    ts = [k / 10.0 for k in range(1, 10)]
    return [_certificate_item(ts), _mather_item(center, width, amplitude)]


# ---------------------------------------------------------------------------
# cli_defaults


def _cli_item(cmd, spec_path, out_dir):
    def run():
        spec = cli.load_spec(spec_path)
        report = cli.run_command(spec)
        cli.emit_report(report, out_dir, spec.formats)
        with open(os.path.join(out_dir, f"{cmd}.json"), encoding="utf-8") as fh:
            return json.load(fh)

    def check(report):
        return _problems((report["command"] == cmd, "wrong command"),
                         (report["exit_code"] == 0,
                          f"exit code {report['exit_code']}"))

    return Item(cmd, run, check)


def cli_defaults(seed: int, workdir: str) -> list:
    cmds = list(cli.COMMANDS)
    random.Random(seed).shuffle(cmds)
    spec_dir = os.path.join(workdir, "specs")
    out_dir = os.path.join(workdir, "reports")
    os.makedirs(spec_dir, exist_ok=True)
    items = []
    for cmd in cmds:
        path = os.path.join(spec_dir, f"{cmd}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"cmd": cmd, "format": ["json", "csv", "svg"]}, fh)
        items.append(_cli_item(cmd, path, out_dir))
    return items


WORKLOADS = {w.name: w for w in (
    Workload("interval_certify", interval_certify, False),
    Workload("cli_defaults", cli_defaults, True),
)}
