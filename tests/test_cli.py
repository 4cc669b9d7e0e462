import copy
import csv
import json
import math
import operator
import os
import random
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

from hyposc import cli, dynamics
from hyposc.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    identities_report,
    load_config,
    main,
)
from hyposc.dynamics import IntegrationError, Mode
from hyposc.orbits import FIGURE_IDS
from hyposc.regimes import ChartId


def _base_config(**overrides):
    cfg = {
        "params": {"omega": 1.0, "radius": 1.0},
        "mode": "Oscillator",
        "initial": {"analytic": {"e": 0.4, "l_sq": 0.25}},
        "integration": {"t_span": [0.0, 8.0]},
        "outputs": [
            {"kind": "TrajectoryCsv", "path": "traj.csv"},
            {"kind": "InvariantsCsv", "path": "inv.csv"},
            {"kind": "EventsJson", "path": "events.json"},
            {"kind": "ReportJson", "path": "report.json"},
        ],
    }
    cfg.update(overrides)
    return cfg


def _write_config(tmp_path, cfg, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_load_config_happy_path():
    rc = load_config(_base_config())
    assert rc.mode == Mode.OSCILLATOR
    assert rc.analytic == (0.4, 0.25)
    assert rc.integration.t_span == (0.0, 8.0)
    assert [o.kind for o in rc.outputs] == [
        "TrajectoryCsv",
        "InvariantsCsv",
        "EventsJson",
        "ReportJson",
    ]


def test_load_config_state_form():
    cfg = _base_config(
        initial={
            "state": {
                "chart": "outer_plus",
                "q1": 1.0,
                "q2": 0.0,
                "phi": 0.0,
                "p1": 0.5,
                "p2": 0.0,
                "pphi": 0.3,
            }
        }
    )
    rc = load_config(cfg)
    assert rc.analytic is None
    assert rc.initial.p1 == 0.5


def test_load_config_rejections():
    with pytest.raises(ConfigError):
        load_config(_base_config(mode="Wobble"))
    with pytest.raises(ConfigError):
        load_config(_base_config(initial={}))
    with pytest.raises(ConfigError):
        load_config(
            _base_config(
                initial={
                    "state": {
                        "chart": "outer_plus",
                        "q1": 1.0,
                        "q2": 0.0,
                        "phi": 0.0,
                        "p1": 0.5,
                        "p2": 0.0,
                        "pphi": 0.3,
                    },
                    "analytic": {"e": 0.4, "l_sq": 0.25},
                }
            )
        )
    with pytest.raises(ConfigError):
        load_config(_base_config(params={"omega": 1.0, "radius": -2.0}))
    with pytest.raises(ConfigError):
        load_config(_base_config(extra_key=1))
    bad_paths = _base_config()
    bad_paths["outputs"][1]["path"] = "traj.csv"
    with pytest.raises(ConfigError, match="distinct"):
        load_config(bad_paths)
    bad_kind = _base_config()
    bad_kind["outputs"][0]["kind"] = "TrajectoryParquet"
    with pytest.raises(ConfigError):
        load_config(bad_kind)
    bad_ids = _base_config()
    bad_ids["outputs"][0] = {"kind": "TrajectoryCsv", "path": "t.csv", "ids": ["fig1"]}
    with pytest.raises(ConfigError, match="FigureSet"):
        load_config(bad_ids)


def test_load_config_energy_screens():
    with pytest.raises(ConfigError, match="minimum of the effective potential"):
        load_config(_base_config(initial={"analytic": {"e": 0.3, "l_sq": 0.25}}))
    with pytest.raises(ConfigError, match="negative energy"):
        load_config(_base_config(initial={"analytic": {"e": -0.5, "l_sq": 0.25}}))
    # negative energy is reachable with negative L^2
    rc = load_config(_base_config(initial={"analytic": {"e": -0.5, "l_sq": -2.0}}))
    assert rc.analytic == (-0.5, -2.0)


# the representation is chosen from the initial state and the stepper runs at
# fixed tolerances, so each of these keys, set to a once valid value, is unknown
_REMOVED_INTEGRATION_KEYS = (("method", "ambient"), ("method", "chart"), ("boundary_band", 1e-6),
                             ("rel_tol", 1e-10), ("abs_tol", 1e-12), ("max_step", 0.5))


def test_load_config_bad_integration():
    with pytest.raises(ConfigError):
        load_config(_base_config(integration={"t_span": [0.0]}))
    with pytest.raises(ConfigError):
        load_config(_base_config(integration={"steps": 100}))
    for key, value in _REMOVED_INTEGRATION_KEYS:
        with pytest.raises(ConfigError) as exc:
            load_config(_base_config(integration={"t_span": [0.0, 8.0], key: value}))
        assert str(exc.value) == f"unknown key(s) ['{key}'] in integration"


def test_simulate_rejects_removed_integration_keys(tmp_path, capsys):
    for key, value in _REMOVED_INTEGRATION_KEYS:
        cfg = _base_config(integration={"t_span": [0.0, 8.0], key: value})
        cfg_path = _write_config(tmp_path, cfg)
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "x")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: unknown key(s) ['{key}'] in integration\n"
    assert not (tmp_path / "x").exists()


def _simulate_exit(tmp_path, capsys, cfg):
    cfg_path = _write_config(tmp_path, cfg)
    code = main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "x")])
    return code, capsys.readouterr().err


def test_simulate_non_numeric_t_span_is_a_config_error(tmp_path, capsys):
    code, err = _simulate_exit(tmp_path, capsys, _base_config(integration={"t_span": ["a", 10]}))
    assert code == EXIT_CONFIG and err.startswith("config error: bad integration block")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("key", ["rel_tol", "abs_tol", "max_step"])
def test_simulate_non_numeric_tolerance_is_a_config_error(tmp_path, capsys, key):
    # a tolerance key of any value is unknown
    cfg = _base_config(integration={"t_span": [0.0, 8.0], key: "x"})
    code, err = _simulate_exit(tmp_path, capsys, cfg)
    assert code == EXIT_CONFIG and err == f"config error: unknown key(s) ['{key}'] in integration\n"


def test_simulate_non_list_figure_ids_is_a_config_error(tmp_path, capsys):
    cfg = _base_config(outputs=[{"kind": "FigureSet", "path": "figs", "ids": 3}])
    code, err = _simulate_exit(tmp_path, capsys, cfg)
    assert code == EXIT_CONFIG and err.startswith("config error: outputs[0].ids must be a list")


_STATE = {"chart": "outer_plus", "q1": 1.0, "q2": 0.0, "phi": 0.0,
          "p1": 0.5, "p2": 0.0, "pphi": 0.3}


SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "docs" / "runconfig.schema.json")
                    .read_text(encoding="utf-8"))


def test_config_schema_objects_match_the_parser(tmp_path, capsys):
    props = SCHEMA["properties"]
    initial = props["initial"]["properties"]
    state_cfg = _base_config(initial={"state": dict(_STATE)})
    figure_cfg = _base_config(outputs=[{"kind": "FigureSet", "path": "figs", "ids": ["fig1"]}])
    cases = [  # (parser's name, schema object, a config, keys from its root to that object)
        ("config", SCHEMA, _base_config(), ()),
        ("params", props["params"], _base_config(), ("params",)),
        ("initial", props["initial"], _base_config(), ("initial",)),
        ("initial", props["initial"], state_cfg, ("initial",)),  # state and analytic exclude each other
        ("initial.state", initial["state"], state_cfg, ("initial", "state")),
        ("initial.analytic", initial["analytic"], _base_config(), ("initial", "analytic")),
        ("integration", props["integration"], _base_config(), ("integration",)),
        ("outputs[0]", props["outputs"]["items"], figure_cfg, ("outputs", 0)),
    ]
    covered = {}
    for where, schema, cfg, keys in cases:
        obj = reduce(operator.getitem, keys, cfg)
        assert set(obj) <= set(schema["properties"]), where
        covered.setdefault(where, set()).update(obj)
        load_config(cfg)
        bad = copy.deepcopy(cfg)
        reduce(operator.getitem, keys, bad)["extra"] = 1
        code, err = _simulate_exit(tmp_path, capsys, bad)
        assert code == EXIT_CONFIG and err == f"config error: unknown key(s) ['extra'] in {where}\n"
    for where, schema, _, _ in cases:
        assert covered[where] == set(schema["properties"]), where
    assert not (tmp_path / "x").exists()


def test_config_schema_enums_match_the_parser():
    props = SCHEMA["properties"]
    modes = props["mode"]["enum"]
    parsed = {load_config(_base_config(mode=m, initial={"state": _STATE})).mode for m in modes}
    assert parsed == set(Mode)
    with pytest.raises(ConfigError) as exc:
        load_config(_base_config(mode="Wobble"))
    assert str(exc.value) == f"mode must be one of {sorted(modes)}"
    chart = props["initial"]["properties"]["state"]["properties"]["chart"]
    assert chart["enum"] == [c.value for c in ChartId]
    item = props["outputs"]["items"]["properties"]
    assert item["kind"]["enum"] == list(cli.OUTPUT_KINDS)
    assert item["ids"]["items"]["enum"] == list(FIGURE_IDS)


@pytest.mark.parametrize("overrides", [
    {"initial": {"state": 5}},
    {"initial": {"analytic": 5}},
    {"integration": 5},
    {"mode": []},
    {"initial": {"state": dict(_STATE, chart=[])}},
    {"initial": {"state": dict(_STATE, q1=math.nan)}},
    {"initial": {"state": dict(_STATE, pphi=math.inf)}},
], ids=["state", "analytic", "integration", "mode", "chart", "nan", "inf"])
def test_simulate_malformed_config_is_a_config_error(tmp_path, capsys, overrides):
    code, err = _simulate_exit(tmp_path, capsys, _base_config(**overrides))
    assert code == EXIT_CONFIG and err.startswith("config error: "), err
    assert not (tmp_path / "x").exists()


def test_simulate_overflowing_initial_state_is_a_numeric_error(tmp_path, capsys):
    # cosh r overflows a float at r ~ 710
    state = dict(_STATE, q1=1e3, p1=0.1, pphi=0.0)
    code, err = _simulate_exit(tmp_path, capsys, _base_config(initial={"state": state}))
    assert code == EXIT_NUMERIC and "non-finite initial data" in err


@pytest.mark.parametrize("p1", [1e154, 1e160])
def test_simulate_huge_momentum_is_a_numeric_error(tmp_path, capsys, monkeypatch, p1):
    # refused before any step: a unit span holds ~p1 dynamical times
    def no_stepping(*args, **kwargs):
        raise AssertionError("solve_stretch called")

    monkeypatch.setattr(dynamics, "solve_stretch", no_stepping)
    state = dict(_STATE, p1=p1)
    cfg = _base_config(initial={"state": state}, integration={"t_span": [0.0, 1.0]})
    code, err = _simulate_exit(tmp_path, capsys, cfg)
    assert code == EXIT_NUMERIC and err.startswith("integration failed: "), err


@pytest.mark.parametrize("overrides, code", [
    # sinh^2 q1 underflows to 0 under an angular momentum
    ({"initial": {"state": dict(_STATE, q1=1e-300)}}, EXIT_NUMERIC),
    # R^2 underflows to 0
    ({"params": {"omega": 1.0, "radius": 1e-300}, "initial": {"state": _STATE}}, EXIT_NUMERIC),
    # omega^2 R^4 underflows to 0 in the report's classification
    ({"params": {"omega": 1e-300, "radius": 1.0}, "initial": {"state": _STATE}}, EXIT_NUMERIC),
    ({"params": {"omega": 1e-300, "radius": 1.0}}, EXIT_CONFIG),
], ids=["q1", "radius", "omega", "omega-analytic"])
def test_simulate_tiny_positive_values_fail_with_one_line(tmp_path, capsys, overrides, code):
    got, err = _simulate_exit(tmp_path, capsys, _base_config(**overrides))
    assert got == code and err.count("\n") == 1, err
    assert not (tmp_path / "x").exists()


def test_classify_zero_omega_is_a_config_error(capsys):
    assert main(["classify", "0.4", "0.25", "--omega", "0"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "classify: no turning structure: omega^2 R^4 = 0 at omega = 0, R = 1\n")


@pytest.mark.parametrize("flag, value", [("--omega", "1e300"), ("--radius", "1e160")])
def test_classify_overflowing_parameters_are_a_config_error(capsys, flag, value):
    # a float power raises OverflowError where a product gives inf
    assert main(["classify", "0.3", "0.1", flag, value]) == EXIT_CONFIG
    omega, radius = ("1e+300", "1") if flag == "--omega" else ("1", "1e+160")
    assert capsys.readouterr().err == (
        f"classify: no turning structure: omega^2 R^4 overflows at omega = {omega}, "
        f"R = {radius}\n")


def test_simulate_analytic_overflowing_omega_is_a_config_error(tmp_path, capsys):
    cfg = _base_config(params={"omega": 1e300, "radius": 1.0},
                       initial={"analytic": {"e": 0.3, "l_sq": 0.1}})
    code, err = _simulate_exit(tmp_path, capsys, cfg)
    assert code == EXIT_CONFIG and err.count("\n") == 1, err
    assert err.startswith("config error: no turning structure: omega^2 R^4 overflows"), err
    assert not (tmp_path / "x").exists()


def test_simulate_chart_rhs_overflow_is_a_numeric_error(tmp_path, capsys):
    # ch**3 in the chart equations raises OverflowError once cosh r ~ 1e103
    state = dict(_STATE, q1=700.0, p1=0.1, p2=0.1)
    cfg = _base_config(initial={"state": state}, integration={"t_span": [0.0, 2.0]})
    code, err = _simulate_exit(tmp_path, capsys, cfg)
    assert code == EXIT_NUMERIC and err.count("\n") == 1, err
    assert err == "integration failed: chart integration failed: OverflowError while stepping\n"


def test_simulate_nan_first_step_is_a_numeric_error(tmp_path, capsys, monkeypatch):
    # q2 = 700 lifts to |z| ~ 6e303: finite, but the first derivative is NaN;
    # the run must stop at t0, so a few RHS calls suffice
    calls = []
    ambient_rhs = dynamics._ambient_rhs

    def counted(params, mode):
        rhs = ambient_rhs(params, mode)

        def wrapped(t, y):
            calls.append(t)
            if len(calls) > 1000:
                raise RuntimeError("the stepper kept going on a NaN step size")
            return rhs(t, y)

        return wrapped

    monkeypatch.setattr(dynamics, "_ambient_rhs", counted)
    state = dict(_STATE, q2=700.0, p1=0.1)
    cfg = _base_config(initial={"state": state}, integration={"t_span": [0.0, 2.0]})
    code, err = _simulate_exit(tmp_path, capsys, cfg)
    assert code == EXIT_NUMERIC and err.count("\n") == 1, err
    assert err == f"integration failed: ambient integration failed: {dynamics.NONFINITE_STEP}\n"
    assert len(calls) <= 2


def test_simulate_beyond_the_step_budget_is_a_numeric_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dynamics, "MAX_STEPS", 40)
    code, err = _simulate_exit(tmp_path, capsys, _base_config())
    assert code == EXIT_NUMERIC and err.count("\n") == 1, err
    assert err.startswith("integration failed: chart integration failed: step budget of 40 "
                          "attempts exhausted at t="), err
    assert not (tmp_path / "x").exists()


def test_simulate_with_overflowing_invariants_is_a_numeric_error_in_a_fresh_process(tmp_path):
    # at R = 1e150 the products N_i N_k of D overflow before the division by R^2
    state = {"chart": "inner_minus", "q1": 0.5, "q2": 0.7, "phi": 0.0,
             "p1": 0.0, "p2": 0.1, "pphi": 0.3}
    cfg = _base_config(params={"omega": 1.0, "radius": 1e150}, mode="Free",
                       initial={"state": state}, integration={"t_span": [0.0, 2.0]})
    cfg_path = _write_config(tmp_path, cfg)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "hyposc.cli", "simulate", "--config", cfg_path,
         "--out", str(tmp_path / "x")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_NUMERIC, proc.stderr
    assert proc.stderr == "integration failed: non-finite D11 in the sample table at t=0.0\n"
    assert not (tmp_path / "x").exists()


def _cli_process(*argv):
    """``python -m hyposc.cli *argv`` in a fresh process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return subprocess.run([sys.executable, "-m", "hyposc.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)


def test_simulate_with_a_nonfinite_first_derivative_fails_at_t0_in_a_fresh_process(tmp_path):
    # at R = 1e150 the ambient right-hand side is not finite at t0: no
    # first step size follows from it, and numpy is not asked for one
    state = {"chart": "outer_plus", "q1": 1.0, "q2": 0.0, "phi": 0.0,
             "p1": 0.5, "p2": 0.0, "pphi": 0.3}
    cfg = _base_config(params={"omega": 1.0, "radius": 1e150},
                       initial={"state": state}, integration={"t_span": [0.0, 2.0]})
    proc = _cli_process("simulate", "--config", _write_config(tmp_path, cfg),
                        "--out", str(tmp_path / "x"))
    assert proc.returncode == EXIT_NUMERIC, proc.stderr
    assert proc.stderr == ("integration failed: ambient integration failed: "
                           f"{dynamics.NONFINITE_STEP}\n")
    assert "RuntimeWarning" not in proc.stderr
    assert not (tmp_path / "x").exists()


# Circular (E, L^2) inside the band of the effective-potential minimum
_CIRCULAR_IN_BAND = [
    ("0.6105906805190334", "0.11991442953155865", "3.416029085515962", "0.32366501268002923"),
    ("37.499999999955", "25", "10", "1"),
]


@pytest.mark.parametrize("e, l_sq, omega, radius", _CIRCULAR_IN_BAND)
def test_classify_in_the_circular_band_is_a_circle_in_a_fresh_process(e, l_sq, omega, radius):
    proc = _cli_process("classify", e, l_sq, "--omega", omega, "--radius", radius)
    assert proc.returncode == EXIT_OK and proc.stderr == "", proc.stderr
    out = json.loads(proc.stdout)
    assert out["regime"] == "Circular" and out["r_min"] == out["r_max"]
    assert out["conic"]["kind"] == "Circle" and out["conic"]["eps"] == 0.0


def test_simulate_in_the_circular_band_reports_a_circle_in_a_fresh_process(tmp_path):
    e, l_sq, omega, radius = (float(v) for v in _CIRCULAR_IN_BAND[1])
    cfg = _base_config(params={"omega": omega, "radius": radius},
                       initial={"analytic": {"e": e, "l_sq": l_sq}},
                       integration={"t_span": [0.0, 2.0]})
    proc = _cli_process("simulate", "--config", _write_config(tmp_path, cfg),
                        "--out", str(tmp_path / "x"))
    assert proc.returncode == EXIT_OK, proc.stderr
    report = json.loads((tmp_path / "x" / "report.json").read_text())
    assert report["classification"]["regime"] == "Circular"
    assert report["classification"]["conic"]["kind"] == "Circle"


def test_zero_l2_band_below_its_turning_discriminant_is_allowed_in_a_fresh_process(tmp_path):
    # L^2 = 5e-13 lies in the zero band, and E = 1e-8 < omega sqrt(L^2)
    # makes the turning discriminant negative; the regime still allows motion
    proc = _cli_process("classify", "1e-8", "5e-13")
    assert proc.returncode == EXIT_OK and proc.stderr == "", proc.stderr
    out = json.loads(proc.stdout)
    assert out["regime"] == "ZeroL2Bounded" and out["r_min"] == 0.0 and out["conic"] is None
    cfg = _base_config(initial={"analytic": {"e": 1e-8, "l_sq": 5e-13}},
                       integration={"t_span": [0.0, 2.0]})
    proc = _cli_process("simulate", "--config", _write_config(tmp_path, cfg),
                        "--out", str(tmp_path / "x"))
    assert proc.returncode == EXIT_OK, proc.stderr
    report = json.loads((tmp_path / "x" / "report.json").read_text())
    assert report["classification"]["regime"] == "ZeroL2Bounded"


@pytest.mark.parametrize("state", [
    # cosh(q2)**2 and sinh(q2)**2 in the radial force scale, then ch**3 in
    # the outer chart equations, all evaluated before the first step
    dict(_STATE, q1=0.5, q2=700.0, p1=0.0, p2=0.1),
    dict(_STATE, chart="inner_minus", q1=0.5, q2=700.0, p1=0.0, p2=0.1),
    dict(_STATE, q1=300.0, p1=0.0, p2=0.1),
], ids=["outer-q2", "inner-q2", "outer-q1"])
def test_pre_solve_force_overflow_is_a_numeric_error_in_a_fresh_process(tmp_path, state):
    cfg = _base_config(initial={"state": state}, integration={"t_span": [0.0, 2.0]})
    cfg_path = _write_config(tmp_path, cfg)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "hyposc.cli", "simulate", "--config", cfg_path,
         "--out", str(tmp_path / "x")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_NUMERIC, proc.stderr
    assert proc.stderr == ("integration failed: initial force evaluation failed: "
                           "OverflowError before stepping\n")


@pytest.mark.parametrize("pphi, p2", [(1.0, 0.0), (0.0, 0.3)], ids=["chart", "ambient"])
def test_initial_lift_off_the_shell_fails_before_stepping(tmp_path, capsys, monkeypatch,
                                                          pphi, p2):
    # at q1 = 16 the lift's z.z rounds 8e-3 R^2 away from R^2
    def no_stepping(*args, **kwargs):
        raise AssertionError("solve_stretch called")

    monkeypatch.setattr(dynamics, "solve_stretch", no_stepping)
    state = dict(_STATE, q1=16.0, p1=0.1, p2=p2, pphi=pphi)
    cfg = _base_config(initial={"state": state}, integration={"t_span": [0.0, 2.0]})
    code, err = _simulate_exit(tmp_path, capsys, cfg)
    assert code == EXIT_NUMERIC and err.count("\n") == 1, err
    assert err.startswith("integration failed: constraint drift ") and err.endswith(" at t=0.0\n")


def test_inner_state_on_the_axis_is_a_config_error_in_a_fresh_process(tmp_path):
    # p_phi != 0 at mu = 0: the lift divides by sinh(mu)
    state = {"chart": "inner_minus", "q1": 0.5, "q2": 0.0, "phi": 0.0,
             "p1": 0.0, "p2": 0.1, "pphi": 0.3}
    cfg_path = _write_config(tmp_path, _base_config(initial={"state": state}))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "hyposc.cli", "simulate", "--config", cfg_path,
         "--out", str(tmp_path / "x")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert proc.stderr == "config error: bad initial state: azimuthal momentum on the mu = 0 axis\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["simulate", "figure", "verify"])
def test_unwritable_output_is_a_config_error_naming_the_path(tmp_path, capsys, command):
    blocked = tmp_path / "blocked"
    if command == "simulate":
        # the report's path names an existing directory
        (blocked / "report.json").mkdir(parents=True)
        cfg = _base_config(outputs=[{"kind": "TrajectoryCsv", "path": "traj.csv"},
                                    {"kind": "ReportJson", "path": "report.json"}])
        args = ["simulate", "--config", _write_config(tmp_path, cfg), "--out", str(blocked)]
        named = str(blocked / "report.json")
    else:
        # the output directory is a file
        blocked.write_text("")
        args = (["figure", "1"] if command == "figure" else ["verify", "so22", "--points", "4"])
        args += ["--out", str(blocked)]
        named = str(blocked)
    assert main(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write outputs: ") and err.count("\n") == 1, err
    assert repr(named) in err
    assert not list(tmp_path.rglob(".tmp-*"))


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["classify", "0.4", "0.25"], ["verify", "so22", "--points", "4"]],
                         ids=["classify", "verify"])
def test_closed_stdout_is_a_config_error_in_a_fresh_process(argv, unbuffered):
    # the read end of stdout's pipe is closed before the command starts: a
    # buffered stdout fails at main's flush, an unbuffered one at the first print
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    try:
        proc = subprocess.run([sys.executable, "-m", "hyposc.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered))
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("suite", ["so22", "appendix_a", "identities", "all"])
@pytest.mark.parametrize("points", ["0", "-2"])
def test_verify_nonpositive_points_is_a_config_error(suite, points, capsys):
    assert main(["verify", suite, "--points", points]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"config error: --points must be >= 1, got {points}\n"
    assert captured.out == ""


@pytest.mark.parametrize("suite", ["so22", "appendix_a", "identities", "all"])
def test_verify_negative_seed_is_a_config_error(suite, capsys):
    assert main(["verify", suite, "--seed", "-1", "--points", "4"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == "config error: --seed must be >= 0, got -1\n"
    assert captured.out == ""


def _usage_error(argv, capsys) -> str:
    """The last stderr line of main(argv), which must exit 2 through argparse."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err.splitlines()[-1]


# the pass tolerances are fixed, so verify has no --tol for any value
@pytest.mark.parametrize("suite", ["so22", "appendix_a", "identities", "all"])
@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf", "-inf"])
def test_verify_tolerance_outside_positive_finite_is_a_config_error(suite, tol, capsys):
    err = _usage_error(["verify", suite, f"--tol={tol}", "--points", "4"], capsys)
    assert err == f"hyposc verify: error: unrecognized arguments: --tol={tol}"


@pytest.mark.parametrize("suite", ["so22", "appendix_a", "identities", "all"])
def test_verify_tol_is_an_unknown_argument(suite, capsys):
    err = _usage_error(["verify", suite, "--points", "4", "--tol", "1e-3"], capsys)
    assert err == "hyposc verify: error: unrecognized arguments: --tol 1e-3"


def test_verify_identities_rejects_tolerance(capsys):
    err = _usage_error(["verify", "identities", "--points", "50", "--tol", "1e-300"], capsys)
    assert err == "hyposc verify: error: unrecognized arguments: --tol 1e-300"


def test_unknown_option_is_reported_with_the_subcommand_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "0.4", "0.25", "--bogus"])
    assert exc.value.code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[0].startswith("usage: hyposc classify ")
    assert captured.err.splitlines()[-1] == "hyposc classify: error: unrecognized arguments: --bogus"


@pytest.mark.parametrize("suite", ["so22", "appendix_a", "identities", "all"])
def test_verify_points_beyond_memory_is_a_config_error(suite, capsys):
    # 1e15 states need petabytes, more than any address space: numpy refuses
    # the first allocation at once
    assert main(["verify", suite, "--points", "1000000000000000"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == ("config error: --points 1000000000000000 needs more memory "
                            "than is available\n")
    assert captured.out == ""


def test_verify_all_applies_tolerance_to_bracket_sweeps(tmp_path, capsys):
    out = tmp_path / "verify"
    assert main(["verify", "all", "--points", "8", "--out", str(out)]) == EXIT_OK
    for name in ("so22", "appendix_a"):
        report = json.loads((out / f"{name}.json").read_text())
        assert report["tolerance"] == 1e-6 and report["passed"]
    identities = json.loads((out / "identities.json").read_text())
    assert [c["tol"] for c in identities["checks"]] == [1e-10, 1e-9, 1e-9, 1e-9, None]
    assert identities["passed"]


# ---------------------------------------------------------------------------
# classify command
# ---------------------------------------------------------------------------


def test_classify_stdout(capsys):
    assert main(["classify", "0.4", "0.25"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["regime"] == "BoundedGeneric"
    assert data["carrier"] == "TwoSheetedUpper"
    assert math.isclose(data["period"], math.pi / math.sqrt(0.2))
    assert data["conic"]["kind"] == "Ellipse"


def test_classify_negative_l2(capsys):
    assert main(["classify", "0.25", "-1.0"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["regime"] == "NegL2Bounded"
    assert data["conic"] is None


def test_classify_rejects_nonfinite(capsys):
    assert main(["classify", "nan", "0.25"]) == EXIT_CONFIG
    assert main(["classify", "0.4", "inf"]) == EXIT_CONFIG


# ---------------------------------------------------------------------------
# simulate command
# ---------------------------------------------------------------------------


def test_simulate_end_to_end(tmp_path, capsys):
    cfg_path = _write_config(tmp_path, _base_config())
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
    for name in ("traj.csv", "inv.csv", "events.json", "report.json"):
        assert (out / name).exists()
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "Oscillator"
    assert report["initial"]["energy"] == pytest.approx(0.4)
    assert report["initial"]["l_sq"] == pytest.approx(0.25)
    assert report["classification"]["regime"] == "BoundedGeneric"
    assert report["max_drift"]["H"] < 1e-8
    assert report["events"].get("RadialTurningPoint", 0) == 2  # apo + peri inside 8 units
    with open(out / "traj.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "t"
    assert len(rows) > 10


def test_simulate_reruns_identical(tmp_path):
    cfg_path = _write_config(tmp_path, _base_config())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg_path, "--out", str(out_a)]) == EXIT_OK
    assert main(["simulate", "--config", cfg_path, "--out", str(out_b)]) == EXIT_OK
    for name in ("traj.csv", "inv.csv", "events.json", "report.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_simulate_free_mode_conserves_generators(tmp_path):
    cfg = _base_config(
        mode="Free",
        initial={
            "state": {
                "chart": "outer_plus",
                "q1": 1.0,
                "q2": 0.3,
                "phi": 0.2,
                "p1": 0.4,
                "p2": -0.3,
                "pphi": 0.6,
            }
        },
        integration={"t_span": [0.0, 6.0]},
    )
    cfg_path = _write_config(tmp_path, cfg)
    out = tmp_path / "free"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    for key in ("L1", "L2", "L3", "N1", "N2", "N3"):
        assert report["max_drift"][key] < 1e-9


def test_simulate_rejects_free_analytic(tmp_path):
    cfg = _base_config(mode="Free")
    cfg_path = _write_config(tmp_path, cfg)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "x")]) == EXIT_CONFIG


def test_simulate_missing_config_file(tmp_path):
    missing = str(tmp_path / "none.json")
    assert main(["simulate", "--config", missing, "--out", str(tmp_path)]) == EXIT_CONFIG


def test_simulate_zero_l2_span_ending_at_the_pole(tmp_path):
    # a sample of this L^2 = 0 orbit lands within rounding of the pole
    from hyposc import ModelParams, classify

    period = classify(0.25, 0.0, ModelParams(1.0, 1.0)).period
    cfg = _base_config(initial={"analytic": {"e": 0.25, "l_sq": 0.0}},
                       integration={"t_span": [0.0, 1.5 * period]})
    cfg_path = _write_config(tmp_path, cfg)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "run")]) == EXIT_OK


def test_simulate_numeric_failure(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise IntegrationError("constraint drift exceeded budget")

    monkeypatch.setattr(dynamics, "integrate", boom)
    cfg_path = _write_config(tmp_path, _base_config())
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "y")]) == EXIT_NUMERIC
    assert "constraint drift" in capsys.readouterr().err


def test_simulate_figure_set_output(tmp_path):
    cfg = _base_config(
        outputs=[
            {"kind": "FigureSet", "path": "figs", "ids": ["fig1", "fig4"]},
            {"kind": "ReportJson", "path": "report.json"},
        ]
    )
    cfg_path = _write_config(tmp_path, cfg)
    out = tmp_path / "w"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
    assert (out / "figs" / "manifest.json").exists()
    assert (out / "figs" / "fig1_ueff.csv").exists()


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------


def test_simulate_figure_set_matches_figure_all(tmp_path, capsys):
    cfg = _base_config(outputs=[{"kind": "FigureSet", "path": "figs"}])
    assert main(["simulate", "--config", _write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "sim")]) == EXIT_OK
    assert main(["figure", "all", "--out", str(tmp_path / "all")]) == EXIT_OK
    names = sorted(os.listdir(tmp_path / "all"))
    assert sorted(os.listdir(tmp_path / "sim" / "figs")) == names and len(names) == 35
    for name in names:
        assert (tmp_path / "sim" / "figs" / name).read_bytes() == \
            (tmp_path / "all" / name).read_bytes(), name


def test_verify_so22(tmp_path, capsys):
    code = main(["verify", "so22", "--points", "64", "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "{L1, L2}" in out and "PASS" in out
    data = json.loads((tmp_path / "so22.json").read_text())
    assert data["passed"] is True


def test_verify_identities(capsys):
    assert main(["verify", "identities", "--points", "100"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "C1 = 0" in out
    assert "C2 + 2 R^2 H_free = 0" in out


def test_verify_appendix_suite(capsys):
    assert main(["verify", "appendix_a", "--points", "16"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "flagged" in out  # the three printed-form rows stay visible
    assert "FAIL" not in out.replace("flagged", "")


def test_verify_all(capsys):
    assert main(["verify", "all", "--points", "32"]) == EXIT_OK


def test_identities_report_shape(params):
    rep = identities_report(params, n_points=32, seed=5)
    assert rep["label"] == "identities"
    assert rep["passed"] is True
    names = {c["identity"] for c in rep["checks"]}
    assert "C1 = 0" in names
    # the batched pass against the single-state API, state by state
    from hyposc.geometry import momentum_lift
    from hyposc.invariants import check_identities, evaluate_invariants
    from hyposc.poisson import sample_states

    loop = [check_identities(evaluate_invariants(momentum_lift(st, params), params), params)
            for st in sample_states(32, seed=5)]
    for k, row in enumerate(rep["checks"]):
        assert abs(row["max_residual"] - max(r["checks"][k]["max_residual"] for r in loop)) <= 1e-12


def test_cli_runs_without_scipy_integrate(tmp_path):
    # scipy is a test dependency only: no command the CLI runs imports it,
    # on the chart path (case A), the ambient path (L^2 < 0) or in figures
    chart = _write_config(tmp_path, _base_config(), "chart.json")
    ambient = _write_config(
        tmp_path, _base_config(initial={"analytic": {"e": 0.25, "l_sq": -1.0}}), "ambient.json")
    commands = [
        ["classify", "0.4", "0.25"],
        ["simulate", "--config", str(chart), "--out", str(tmp_path / "chart")],
        ["simulate", "--config", str(ambient), "--out", str(tmp_path / "ambient")],
        ["figure", "all", "--out", str(tmp_path / "figures")],
    ]
    code = (
        "import sys, hyposc, hyposc.cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not scipy_modules(), ('on import', scipy_modules())\n"
        f"for args in {commands!r}:\n"
        "    assert hyposc.cli.main(args) == 0, args\n"
        "    assert not scipy_modules(), (args[0], scipy_modules())\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "figures" / "fig9_orbit_e0.8.csv").exists()


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _run_cli_in_fresh_process(argvs, tmp_path, **env):
    """Run ``python -m hyposc.cli`` on each argv in one fresh process.

    ``env`` sets (a string) or removes (None) variables of the process's
    environment.  Returns each run's stdout, the modules loaded at the end,
    OPENBLAS_NUM_THREADS at the end and the process's thread count (None where
    /proc/self/task does not exist).
    """
    code = (
        "import contextlib, io, json, os, runpy, sys\n"
        "outs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    sys.argv = ['hyposc'] + argv\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        try:\n"
        "            runpy.run_module('hyposc.cli', run_name='__main__')\n"
        "        except SystemExit as exc:\n"
        "            assert exc.code == 0, (argv, exc.code)\n"
        "    outs.append(buf.getvalue())\n"
        "task = '/proc/self/task'\n"
        "threads = len(os.listdir(task)) if os.path.isdir(task) else None\n"
        "print(json.dumps([outs, sorted(sys.modules), os.environ.get('OPENBLAS_NUM_THREADS'),"
        " threads]))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    child_env = dict(os.environ, PYTHONPATH=src)
    for name, value in env.items():
        if value is None:
            child_env.pop(name, None)
        else:
            child_env[name] = value
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], cwd=tmp_path,
                          env=child_env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("command, absent", [
    ("classify", ("numpy", "hyposc.geometry", "hyposc.dynamics", "hyposc.poisson",
                  "hyposc.orbits")),
    ("verify", ("hyposc.dynamics", "hyposc.orbits")),
    ("simulate", ("hyposc.poisson",)),
    ("figure", ("hyposc.poisson",)),
    ("fig8", ("hyposc.dynamics", "hyposc.invariants", "hyposc.poisson")),
])
def test_each_command_loads_only_what_it_runs(tmp_path, command, absent):
    argv = {
        "classify": ["classify", "0.4", "0.25"],
        "verify": ["verify", "so22", "--points", "16"],
        "simulate": ["simulate", "--config", _write_config(tmp_path, _base_config()),
                     "--out", "run"],
        "figure": ["figure", "all", "--out", "figures"],
        "fig8": ["figure", "fig8", "--out", "fig8"],
    }[command]
    _, modules, _, _ = _run_cli_in_fresh_process([argv], tmp_path)
    assert not set(absent) & set(modules), sorted(set(absent) & set(modules))


def _regime_points(omega, radius):
    """One (E, L^2) point inside each of the ten radial regimes."""
    half, w2r4 = 0.5 * omega**2 * radius**2, omega**2 * radius**4
    rng = random.Random(f"{omega}-{radius}")
    u = rng.random
    l_in = w2r4 * (0.1 + 0.8 * u())  # 0 < L^2 < omega^2 R^4: an interior minimum
    e_min = omega * math.sqrt(l_in) - l_in / (2.0 * radius**2)
    return {
        "BoundedGeneric": (e_min + (half - e_min) * (0.1 + 0.8 * u()), l_in),
        "Circular": (e_min, l_in),
        "UnboundedGeneric": (half * (1.1 + u()), l_in),
        "Threshold": (half, l_in),
        "RepulsiveL2": (half * (1.1 + u()), w2r4 * (1.1 + u())),
        "NegL2Bounded": (half * (1.8 * u() - 0.9), -w2r4 * (0.1 + u())),
        "NegL2Unbounded": (half * (1.1 + u()), -w2r4 * (0.1 + u())),
        "ZeroL2Bounded": (half * (0.1 + 0.8 * u()), 0.0),
        "ZeroL2Unbounded": (half * (1.1 + u()), 0.0),
        "Forbidden": (e_min - half * (0.1 + u()), l_in),
    }


def test_classify_in_a_fresh_process_matches_orbits_classify(tmp_path):
    from hyposc import orbits

    argvs, expected = [], []
    for omega, radius in ((1.0, 1.0), (2.0, 0.5), (0.5, 3.0)):
        params = orbits.ModelParams(omega, radius)
        for regime, (e, l_sq) in _regime_points(omega, radius).items():
            oc = orbits.classify(e, l_sq, params)
            assert oc.regime.value == regime
            argvs.append(["classify", repr(e), repr(l_sq), "--omega", repr(omega),
                          "--radius", repr(radius)])
            data = {"e": e, "l_sq": l_sq, "omega": omega, "radius": radius}
            data.update(cli._classification_dict(oc))
            expected.append(json.dumps(data, indent=2) + "\n")
    outs, modules, _, _ = _run_cli_in_fresh_process(argvs, tmp_path)
    assert "numpy" not in modules
    assert outs == expected


def test_cli_runs_blas_on_one_thread(tmp_path):
    _, modules, blas_threads, threads = _run_cli_in_fresh_process(
        [["verify", "so22", "--points", "4"]], tmp_path, **dict.fromkeys(_BLAS_THREAD_VARS))
    assert "numpy" in modules
    assert blas_threads == "1"
    if threads is not None:
        assert threads == 1


def test_cli_keeps_a_blas_thread_count_the_user_set(tmp_path):
    _, _, blas_threads, _ = _run_cli_in_fresh_process(
        [["verify", "so22", "--points", "4"]], tmp_path, OPENBLAS_NUM_THREADS="2")
    assert blas_threads == "2"


def test_cli_main_in_process_leaves_the_environment_alone(monkeypatch, capsys):
    import numpy  # noqa: F401  (loaded by hyposc.dynamics already)

    for name in _BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    assert main(["classify", "0.4", "0.25"]) == EXIT_OK
    assert "OPENBLAS_NUM_THREADS" not in os.environ


def test_package_exports_resolve_once():
    import hyposc

    assert len(set(hyposc.__all__)) == len(hyposc.__all__)
    for name in hyposc.__all__:
        assert hasattr(hyposc, name), name


def test_benchmark_tracer_finds_every_name_it_wraps():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    bench = os.path.join(os.path.dirname(src), "bench")
    code = f"import sys; sys.path.insert(0, {bench!r}); import tracer; tracer.Tracer().install()"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_records_each_command_call_once(tmp_path):
    # the commands call integrate and the sweeps through their home modules, so
    # the tracer's wrapper there is the one entered, and entered once per call
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    bench = os.path.join(os.path.dirname(src), "bench")
    cfg_path = _write_config(tmp_path, _base_config())
    trace = str(tmp_path / "trace.json")
    code = (
        f"import json, sys; sys.path.insert(0, {bench!r}); import tracer\n"
        "t = tracer.Tracer(); t.install()\n"
        "import hyposc.cli as cli\n"
        f"cli.main(['simulate', '--config', {cfg_path!r}, '--out', {str(tmp_path / 'run')!r}])\n"
        "cli.main(['verify', 'so22', '--points', '4'])\n"
        f"json.dump(t.snapshot()['spans'], open({trace!r}, 'w'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(trace) as fh:
        spans = {(name, parent): calls for name, parent, calls, _, _ in json.load(fh)}
    for name in ("dynamics.integrate", "poisson.so22"):
        assert spans.get((name, "cli.main")) == 1, spans
        assert (name, name) not in spans, spans


# ---------------------------------------------------------------------------
# figure command
# ---------------------------------------------------------------------------


def test_figure_single(tmp_path, capsys):
    assert main(["figure", "5", "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "manifest.json").exists()
    files = list(tmp_path.glob("fig5_*.csv"))
    assert files


def test_figure_invalid_id(tmp_path):
    assert main(["figure", "12", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert main(["figure", "nope", "--out", str(tmp_path)]) == EXIT_CONFIG
