"""Tests for the command-line front end: spec validation, dispatch, report
determinism, file emission, and exit codes."""

import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys

import pytest

import difflab
import difflab.cli as cli
from difflab.cli import (
    COMMANDS,
    SpecError,
    emit_report,
    load_spec,
    main,
    run_command,
)


class TestLoadSpec:
    def test_minimal_dict_gets_defaults(self):
        spec = load_spec({"cmd": "metrics"})
        assert spec.cmd == "metrics"
        assert spec.params["r"] == "1"
        assert spec.grid_N >= 64
        assert spec.formats == ("json",)

    def test_unknown_top_level_key(self):
        with pytest.raises(SpecError, match="bogus"):
            load_spec({"cmd": "metrics", "bogus": 1})

    def test_unknown_param_key_names_path(self):
        with pytest.raises(SpecError, match="params.bogus"):
            load_spec({"cmd": "metrics", "params": {"bogus": 1}})

    def test_unknown_command(self):
        with pytest.raises(SpecError, match="cmd"):
            load_spec({"cmd": "frobnicate"})

    def test_version_mismatch(self):
        with pytest.raises(SpecError, match="version"):
            load_spec({"cmd": "flow", "version": 99})

    def test_bad_tolerance(self):
        with pytest.raises(SpecError, match="tol"):
            load_spec({"cmd": "flow", "tol": -1.0})

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), True, "1e-6"])
    def test_tolerance_is_a_finite_positive_number(self, tol):
        # nan fails every comparison and inf passes every one; True is no
        # number of a spec
        with pytest.raises(SpecError, match="'tol' must be a finite positive"):
            load_spec({"cmd": "flow", "tol": tol})

    def test_boolean_grid_N(self):
        with pytest.raises(SpecError, match="'grid_N' must be an integer"):
            load_spec({"cmd": "flow", "grid_N": True})

    @pytest.mark.parametrize("text", [
        '{"cmd": "flow", "tol": NaN}',
        '{"cmd": "flow", "params": {"t": Infinity}}',
        '{"cmd": "flow", "params": {"s": -Infinity}}',
    ])
    def test_non_finite_constants_in_a_file(self, text, tmp_path):
        # Python's json reader accepts these; the report would not be JSON
        path = tmp_path / "run.json"
        path.write_text(text)
        with pytest.raises(SpecError, match="not a number"):
            load_spec(str(path))

    @pytest.mark.parametrize("field, value", [
        ("grid_N", 100), ("grid_N", 32), ("format", 5), ("out", 5)])
    def test_bad_field_value(self, field, value):
        with pytest.raises(SpecError, match=field):
            load_spec({"cmd": "flow", field: value})

    def test_missing_file(self):
        with pytest.raises(SpecError, match="does not exist"):
            load_spec("/nonexistent/spec.json")

    def test_nested_composition_accepted(self):
        spec = load_spec({
            "cmd": "metrics",
            "params": {
                "f": {"kind": "compose", "maps": [
                    {"kind": "moebius", "a": 2},
                    {"kind": "inverse", "of": {
                        "kind": "iterate", "n": 2,
                        "of": {"kind": "moebius", "a": 1.5}}},
                ]},
                "g": {"kind": "identity"},
            },
        })
        report = run_command(spec)
        assert report["exit_code"] == 0
        assert report["report"]["d"] > 0.0

    def test_bad_nested_kind_names_path(self):
        with pytest.raises(SpecError, match="params.f.maps"):
            run_command(load_spec({
                "cmd": "metrics",
                "params": {"f": {"kind": "compose",
                                 "maps": [{"kind": "nope"}]}},
            }))


class TestRunCommand:
    def test_flow_group_law(self):
        report = run_command(load_spec({"cmd": "flow"}))
        assert report["exit_code"] == 0
        assert report["report"]["group_residual"] < 1e-6

    def test_flow_violation_surfaces_as_exit_2(self):
        report = run_command(load_spec({"cmd": "flow", "tol": 1e-18}))
        assert report["exit_code"] == 2
        assert report["violations"]

    def test_staircase(self):
        report = run_command(load_spec({"cmd": "staircase",
                                        "params": {"depth": 6, "n": 2}}))
        assert report["exit_code"] == 0
        assert report["report"]["var_lower_bound"] == "1/4"

    def test_hyperbolic_small(self):
        report = run_command(load_spec({"cmd": "hyperbolic",
                                        "params": {"N": 64}}))
        assert report["exit_code"] == 0

    def test_sergeraert(self):
        report = run_command(load_spec({"cmd": "sergeraert",
                                        "params": {"k": 3}}))
        assert report["exit_code"] == 0
        assert report["report"]["half_map_residual"] <= 1e-12

    def test_classify_reads_the_flow_time_ratio(self):
        # on (0, 1/2) the default action's generators are the times 0.8 and
        # 0.8 sqrt(2) of one flow; the first generator is exactly the time-1
        # map of its Szekeres table, so the ratio is read to 1e-11
        report = run_command(load_spec({"cmd": "classify"}))
        alpha = report["report"]["components"][0]["alphas"][1]
        assert abs(alpha - math.sqrt(2.0)) <= 1e-11

    @pytest.mark.parametrize("f_index", [2, -1])
    def test_drift_f_index_out_of_range(self, f_index):
        # the default action has d = 2 generators
        with pytest.raises(SpecError, match="params.f_index"):
            run_command(load_spec({"cmd": "drift",
                                   "params": {"f_index": f_index}}))

    def test_flow_map_against_its_time_one_map(self):
        # the time-1 map of the Moebius field is the Moebius map itself
        report = run_command(load_spec({"cmd": "metrics", "params": {
            "f": {"kind": "flow", "a": 2, "t": 1},
            "g": {"kind": "moebius", "a": 2}}}))
        assert report["exit_code"] == 0
        assert report["report"]["d"] <= 1e-12

    @pytest.mark.parametrize("field", [
        {"family": "parabolic_right"},
        {"family": "parabolic_both", "lam": 0.5}])
    def test_flow_of_an_analytic_family(self, field):
        report = run_command(load_spec({"cmd": "flow",
                                        "params": {"field": field}}))
        assert report["exit_code"] == 0
        assert report["report"]["group_residual"] <= 1e-12

    def test_rotation_number_of_a_rigid_rotation(self):
        report = run_command(load_spec({"cmd": "rot", "params": {
            "f": {"kind": "rotation", "alpha": 0.3}}}))
        assert report["report"]["value"] == pytest.approx(0.3, abs=1e-12)

    def test_vinf_schedule(self):
        report = run_command(load_spec({"cmd": "vinf",
                                        "params": {"schedule": [1, 2, 4]}}))
        assert [row[0] for row in report["series"]["var_over_n"]["rows"]] == [1, 2, 4]

    def test_szekeres_oracle_for_any_moebius_expression(self):
        # a composition of Moebius maps is the Moebius map of the product
        report = run_command(load_spec({"cmd": "szekeres", "params": {
            "f": {"kind": "compose", "maps": [{"kind": "moebius", "a": 2},
                                              {"kind": "moebius", "a": 1.5}]},
            "samples": 9}}))
        assert report["report"]["oracle_sup_gap"] <= 1e-6

    def test_defaults_are_never_shared(self):
        a = load_spec({"cmd": "interp"})
        a.params["phi"]["base"]["kind"] = "moebius"
        assert load_spec({"cmd": "interp"}).params["phi"]["base"] == {"kind": "identity"}

    def test_determinism(self):
        doc = {"cmd": "metrics", "params": {"r": "1+bv"}}
        a = json.dumps(run_command(load_spec(doc)), sort_keys=True)
        b = json.dumps(run_command(load_spec(doc)), sort_keys=True)
        assert a == b


class TestEmission:
    def test_files_written(self, tmp_path):
        report = run_command(load_spec({"cmd": "flow"}))
        written = emit_report(report, str(tmp_path), ("json", "csv", "svg"))
        names = sorted(os.path.basename(p) for p in written)
        assert "flow.json" in names
        assert "flow.meta.json" in names
        assert any(n.endswith(".csv") for n in names)
        assert any(n.endswith(".svg") for n in names)
        payload = json.loads((tmp_path / "flow.json").read_text())
        assert payload["command"] == "flow"

    def test_json_byte_stable(self, tmp_path):
        doc = {"cmd": "metrics"}
        d1, d2 = tmp_path / "a", tmp_path / "b"
        emit_report(run_command(load_spec(doc)), str(d1))
        emit_report(run_command(load_spec(doc)), str(d2))
        assert (d1 / "metrics.json").read_bytes() == \
            (d2 / "metrics.json").read_bytes()


class TestMain:
    def test_all_commands_registered(self):
        assert len(COMMANDS) == 17

    def test_plain_run(self, capsys):
        rc = main(["metrics"])
        out = capsys.readouterr().out
        assert rc == 0
        assert json.loads(out)["command"] == "metrics"

    def test_spec_file_and_out(self, tmp_path, capsys):
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(
            {"cmd": "staircase", "params": {"depth": 5, "n": 2}}))
        out_dir = tmp_path / "out"
        rc = main(["staircase", "--spec", str(spec_path),
                   "--out", str(out_dir), "--format", "json,csv"])
        assert rc == 0
        assert (out_dir / "staircase.json").exists()

    def test_cmd_mismatch_is_error(self, tmp_path, capsys):
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps({"cmd": "metrics"}))
        rc = main(["flow", "--spec", str(spec_path)])
        assert rc == 1
        assert "does not match" in capsys.readouterr().err

    def test_config_search_path(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "cfg.json").write_text(json.dumps({"cmd": "metrics"}))
        monkeypatch.setenv("DIFFLAB_CONFIG_PATH", str(tmp_path))
        rc = main(["metrics", "--spec", "cfg.json"])
        assert rc == 0

    def test_interp_rejects_a_circle_action(self, tmp_path, capsys):
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(
            {"cmd": "interp", "params": {"action": {"preset": "circle_pair"}}}))
        rc = main(["interp", "--spec", str(spec_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "spec error" in err and "interval action" in err

    @pytest.mark.parametrize("flags, field", [
        (["sergeraert", "--format", "xml"], "format.xml"),
        (["flow", "--tol=-1"], "tol"),
        (["metrics", "--grid-N", "100"], "grid_N"),
    ])
    def test_bad_flag_is_a_spec_error(self, flags, field, capsys):
        rc = main(flags)
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.startswith("spec error:") and field in captured.err

    def test_nan_tolerance_flag(self, capsys):
        assert main(["flow", "--tol", "nan"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "tol" in captured.err

    def test_bad_grid_N_in_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps({"cmd": "metrics", "grid_N": 100}))
        rc = main(["metrics", "--spec", str(spec_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("spec error:") and "grid_N" in err

    def test_flags_override_the_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps({"cmd": "metrics", "grid_N": 100}))
        rc = main(["metrics", "--spec", str(spec_path), "--grid-N", "128"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["command"] == "metrics"

    def test_violation_exit_code(self, capsys):
        rc = main(["flow", "--tol", "1e-18"])
        assert rc == 2

    def test_falsified_gm_bound_exits_2(self, capsys, monkeypatch):
        # a negative slack is reported as a violation, not raised
        monkeypatch.setattr(difflab.deform, "_GM_BOUND_TOL", -1.0)
        assert main(["gmconj"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert {v["check"] for v in report["violations"]} == {"gm_conjugacy_bound"}
        assert all(s < 0 for s in report["report"]["slacks"])

    def test_falsified_staircase_bound_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(difflab.counterexamples, "_family_sup_bound",
                            lambda M, eps: 0.0)
        assert main(["staircase"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert [v["check"] for v in report["violations"]] == ["staircase_bounds"]
        assert report["report"]["holds"] is False

    def test_classify_fixed_interval(self, tmp_path, capsys):
        # the identity fixes all of [0, 1]: a fixed interval, no components
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(
            {"cmd": "classify",
             "params": {"action": {"generators": [{"kind": "identity"}]}}}))
        rc = main(["classify", "--spec", str(spec_path)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["parabolic_set"] == [[0.0, 1.0]]
        assert report["components"] == []


# (command, params, dotted path of the refused value): values of the wrong
# type are refused where the spec is read, never coerced or truncated
_WRONG_TYPES = [
    ("sergeraert", {"k": 3.9}, "params.k"),
    ("szekeres", {"samples": 2.7}, "params.samples"),
    ("staircase", {"depth": 8.5}, "params.depth"),
    ("hyperbolic", {"N": 10.9}, "params.N"),
    ("staircase", {"n": 2.5}, "params.n"),
    ("vinf", {"schedule": [1, 2.9]}, "params.schedule[1]"),
    ("metrics", {"f": {"kind": "moebius", "a": True}}, "params.f.a"),
    ("metrics", {"f": {"kind": "moebius", "a": "2"}}, "params.f.a"),
    ("flow", {"t": True}, "params.t"),
    ("deform", {"t": "abc"}, "params.t"),
    ("herman", {"ns": [True]}, "params.ns[0]"),
    ("metrics", {"r": 3}, "params.r"),
    ("gmconj", {"ns": 5}, "params.ns"),
    ("staircase", {"M": "1/2"}, "params.M"),
    ("classify", {"action": {"generators": [{"kind": "identity"}],
                             "circle": "false"}}, "params.action.circle"),
    # well-typed values that the spec reader refuses all the same
    ("rot", {"f": {"kind": "conjugated_rotation", "freq": 0}}, "params.f.freq"),
    ("rot", {"f": {"kind": "conjugated_rotation", "amp": 1.0}}, "params.f.amp"),
    ("herman", {"action": {"preset": "two_component"}}, "params.action"),
    ("drift", {"action": {"preset": "circle_pair"}}, "params.action"),
    ("classify", {"action": {"preset": "circle_pair"}}, "params.action"),
    ("deform", {"action": {"circle": True}}, "params.action"),
    ("szekeres", {"samples": 2}, "params.samples"),
    ("szekeres", {"samples": -5}, "params.samples"),
]
# well-typed values that the library refuses
_BAD_VALUES = [
    ("metrics", {"f": {"kind": "moebius", "a": -1}}, "Moebius parameter"),
    ("metrics", {"r": "3"}, "metric selector"),
    ("gmconj", {"ns": [0]}, "n must be >= 1"),
    ("drift", {"n": 0}, "n must be >= 1"),
    ("metrics", {"f": {"kind": "bump", "amp": 5}}, "monotonicity"),
]


@pytest.mark.parametrize("cmd, params, path", _WRONG_TYPES)
def test_wrong_type_is_a_spec_error(cmd, params, path, tmp_path, capsys):
    spec_path = tmp_path / "run.json"
    spec_path.write_text(json.dumps({"cmd": cmd, "params": params}))
    assert main([cmd, "--spec", str(spec_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"spec error: field '{path}' must be")


def test_circle_list_takes_the_rotation_defaults(tmp_path, capsys):
    spec_path = tmp_path / "run.json"
    spec_path.write_text(json.dumps(
        {"cmd": "herman", "params": {"action": {"circle": True}, "ns": [4]}}))
    assert main(["herman", "--spec", str(spec_path)]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["ns"] == [4]
    act = cli._build_action({"circle": True}, "action", difflab.DEFAULT_CONFIG)
    (g,) = act.generators
    assert isinstance(g, difflab.Rotation)
    assert g.alpha == cli._CIRCLE_MAPS["rotation"]["alpha"]


@pytest.mark.parametrize("params, monotone", [
    # the rigid rotation's distances are rounding noise, at most ABS_TOL
    ({"action": {"circle": True}}, True),
    ({"ns": [64, 16]}, False),
], ids=["rigid_rotation", "growing_distance"])
def test_herman_monotone_reads_converged_distances(params, monotone, tmp_path, capsys):
    spec_path = tmp_path / "run.json"
    spec_path.write_text(json.dumps({"cmd": "herman", "params": params}))
    assert main(["herman", "--spec", str(spec_path)]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["monotone"] is monotone


def test_bvdemo_reuses_its_last_row(monkeypatch, capsys):
    # rows m = 1..3 at the default n = 3: the report is the row-3 result
    calls = []
    real = cli.bv_group_demo
    monkeypatch.setattr(cli, "bv_group_demo",
                        lambda tree, n: calls.append(n) or real(tree, n))
    assert main(["bvdemo"]) == 0
    assert calls == [1, 2, 3]
    assert json.loads(capsys.readouterr().out)["report"]["n"] == 3


@pytest.mark.parametrize("cmd, params, message", _BAD_VALUES)
def test_bad_value_keeps_its_library_error(cmd, params, message, tmp_path, capsys):
    spec_path = tmp_path / "run.json"
    spec_path.write_text(json.dumps({"cmd": cmd, "params": params}))
    assert main([cmd, "--spec", str(spec_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [") and message in err


class _ReadLog(dict):
    """A params dict that records which keys its command reads."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _reference_check():
    """perfbench's stored cli_defaults reports and its comparison, read
    from the checkout."""
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
    spec = importlib.util.spec_from_file_location(
        "refcheck", os.path.join(bench, "refcheck.py"))
    refcheck = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(refcheck)
    with open(os.path.join(bench, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    return (refcheck.compare, reference["workloads"]["cli_defaults"],
            reference["rel_tol"], reference["abs_tol"])


@pytest.mark.parametrize("cmd", COMMANDS)
def test_every_command_on_its_defaults(cmd, tmp_path, monkeypatch):
    logs = []

    def logged(spec):
        logs.append(_ReadLog(spec.params))
        return run_command(dataclasses.replace(spec, params=logs[-1]))

    monkeypatch.setattr(cli, "run_command", logged)
    rc = main([cmd, "--out", str(tmp_path), "--format", "json,csv,svg"])
    assert rc == 0
    # every schema key reaches the command: no parameter is accepted and
    # then ignored
    (log,) = logs
    assert log.read == set(log)
    report = json.loads((tmp_path / f"{cmd}.json").read_text())
    assert report["violations"] == []
    meta = json.loads((tmp_path / f"{cmd}.meta.json").read_text())
    assert meta["package_version"] == difflab.__version__
    for name in report["series"]:
        assert (tmp_path / f"{cmd}.{name}.csv").is_file()
        assert (tmp_path / f"{cmd}.{name}.svg").is_file()
    assert len(list(tmp_path.iterdir())) == 2 + 2 * len(report["series"])
    # no report drifts from the benchmark's stored one beyond its tolerances
    compare, refs, rel_tol, abs_tol = _reference_check()
    assert compare(refs[cmd], report, rel_tol, abs_tol) == []


def test_commands_load_no_scipy():
    # scipy is a test dependency only: importing difflab and running every
    # command on its default spec loads no scipy module
    src = os.path.dirname(os.path.dirname(os.path.abspath(difflab.__file__)))
    code = ("import sys, difflab\n"
            "from difflab import cli\n"
            "for cmd in cli.COMMANDS:\n"
            "    cli.run_command(cli.load_spec({'cmd': cmd}))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


# work counts of the default specs, machine-independent guards on the
# orbit walks' cost


def test_default_drift_steps_the_last_generator_per_batch(monkeypatch):
    # the 32 rows of the second generator walk in batches that fit in
    # diffeo._WALK_POINTS (7 rows of 2,049 points), 31 jets per batch: 155
    # calls, where a walk row by row made 32 * 31 = 992
    spec = load_spec({"cmd": "drift"})
    act = cli._read_action(spec, spec.config, "interval")
    g = act.generators[1]
    calls = []
    jet = g._jet
    monkeypatch.setattr(g, "_jet", lambda x: calls.append(x.size) or jet(x))
    monkeypatch.setattr(cli, "_read_action", lambda *args: act)
    run_command(spec)
    assert len(calls) <= 160


def test_default_herman_computes_the_rotation_number_once(monkeypatch):
    # the three box sizes n = 4, 16, 64 share the action's rotation numbers
    calls = []
    rotation_number = difflab.diffeo.rotation_number
    monkeypatch.setattr(difflab.diffeo, "rotation_number",
                        lambda f: calls.append(f) or rotation_number(f))
    run_command(load_spec({"cmd": "herman"}))
    assert len(calls) == 1
