import csv
import json
import math
import os
import subprocess
import sys

import pytest

from hyposc import cli
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


def test_load_config_bad_integration():
    with pytest.raises(ConfigError):
        load_config(_base_config(integration={"t_span": [0.0]}))
    with pytest.raises(ConfigError):
        load_config(_base_config(integration={"steps": 100}))
    # the representation is chosen from the initial state; the old knobs fail
    for key, value in (("method", "ambient"), ("method", "verlet"), ("boundary_band", 1e-6)):
        with pytest.raises(ConfigError, match=f"integration.{key} .*initial state"):
            load_config(_base_config(integration={"t_span": [0.0, 8.0], key: value}))


def test_simulate_rejects_removed_integration_keys(tmp_path, capsys):
    for key, value in (("method", "chart"), ("boundary_band", 1e-6)):
        cfg = _base_config(integration={"t_span": [0.0, 8.0], key: value})
        cfg_path = _write_config(tmp_path, cfg)
        assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "x")]) == EXIT_CONFIG
        assert f"integration.{key}" in capsys.readouterr().err
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
    cfg = _base_config(integration={"t_span": [0.0, 8.0], key: "x"})
    code, err = _simulate_exit(tmp_path, capsys, cfg)
    assert code == EXIT_CONFIG and err.startswith("config error: bad integration block")


def test_simulate_non_list_figure_ids_is_a_config_error(tmp_path, capsys):
    cfg = _base_config(outputs=[{"kind": "FigureSet", "path": "figs", "ids": 3}])
    code, err = _simulate_exit(tmp_path, capsys, cfg)
    assert code == EXIT_CONFIG and err.startswith("config error: outputs[0].ids must be a list")


_STATE = {"chart": "outer_plus", "q1": 1.0, "q2": 0.0, "phi": 0.0,
          "p1": 0.5, "p2": 0.0, "pphi": 0.3}


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


@pytest.mark.parametrize("suite", ["so22", "appendix_a", "identities", "all"])
@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf", "-inf"])
def test_verify_tolerance_outside_positive_finite_is_a_config_error(suite, tol, capsys):
    assert main(["verify", suite, f"--tol={tol}", "--points", "4"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"config error: --tol must be positive and finite, got {float(tol)}\n"
    assert captured.out == ""


def test_verify_identities_rejects_tolerance(capsys):
    # its tolerances are fixed relative to each state's scale
    assert main(["verify", "identities", "--points", "50", "--tol", "1e-300"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == (
        "config error: --tol does not apply to identities, whose tolerances are fixed "
        "relative to each state's scale (1e-10, 1e-09)\n"
    )
    assert captured.out == ""


def test_verify_all_applies_tolerance_to_bracket_sweeps(tmp_path, capsys):
    out = tmp_path / "verify"
    assert main(["verify", "all", "--points", "8", "--tol", "1e-300", "--out", str(out)]) \
        == EXIT_NUMERIC
    for name in ("so22", "appendix_a"):
        report = json.loads((out / f"{name}.json").read_text())
        assert report["tolerance"] == 1e-300 and not report["passed"]
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

    monkeypatch.setattr(cli, "integrate", boom)
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
        assert abs(row["max_residual"] - max(r.checks[k].residual for r in loop)) <= 1e-12


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
