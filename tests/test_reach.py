"""Reach gate: product code is code the product runs.

The CLI surface below runs in process under `sys.setprofile`.  Every
function defined in src/ (at module level or in a class body; nested
functions, lambdas and module-level `__getattr__` aside) is either entered
by it or listed in UNREACHED with the reason it stays:

- "api": public API, named in README.md or in a bench/*.py file;
- "oracle": a tests/ file other than this one compares product code
  against it;
- "closed_form": a closed form of the paper, bound for a product check;
- "guard": entered only on invalid input.

A helper reached only through another listed function names it, as
(reason, name), and the reason is checked on that name.  The list may
shrink freely; a change that adds to it says why.  Functions are keyed
`module:qualname` by their first line (the first decorator's, for a
decorated one), read from the source with `ast`.
"""

import ast
import json
import re
import sys
from pathlib import Path

from hyposc import cli
from hyposc.regimes import ModelParams, eff_minimum

SRC = Path(cli.__file__).resolve().parent
ROOT = SRC.parent.parent
REASONS = ("api", "oracle", "closed_form", "guard")

UNREACHED = {
    "duals:Dual.__rsub__": ("oracle", "_library_values"),  # _free_hamiltonian's ndarray - Dual
    "duals:_fill": "guard",
    "dynamics:Trajectory.ambient_at": "api",
    "geometry:constraint_residual": "oracle",  # test_geometry checks embed against it
    "geometry:embed": "api",
    "geometry:momentum_project": "api",  # single-state view of project_coords
    "geometry:unembed": "api",  # single-point view of project_coords
    "invariants:_zp": ("api", "evaluate_invariants"),
    "invariants:check_identities": "api",
    "invariants:evaluate_invariants": "api",
    "orbits:AngularSolution.__call__": "closed_form",
    "orbits:AngularSolution.residual": "closed_form",
    "orbits:angular_solution": "closed_form",
    "orbits:contraction_check": "closed_form",
    "orbits:half_period_formula": "closed_form",
    "orbits:radial_solution": "closed_form",
    "orbits:zero_l2_orbit": "closed_form",
    "poisson:sample_states": "api",
}

# (omega, R) sets of the benchmark's orbit_scan, simulate and classify
PARAM_SETS = ((1.0, 1.0), (2.0, 0.5), (0.5, 3.0))
# one (E / omega^2 R^2, L^2 / omega^2 R^4) per regime; None marks the circular
# energy, the effective-potential minimum
UNIT_POINTS = ((None, 0.25), (0.4, 0.25), (0.5, 0.25), (0.6, 0.25), (0.505, 1.1),
               (0.2, 0.0), (0.8, 0.0), (0.25, -1.0), (0.7, -1.0), (0.3, 0.25))


def _functions() -> dict:
    """{(file, first line): "module:qualname"} of every def outside another def."""
    out = {}

    def visit(body, path, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, path, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if prefix == "" and node.name == "__getattr__":
                    continue  # import machinery probes it differently across versions
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out[(str(path), first)] = f"{path.stem}:{prefix}{node.name}"

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")).body, path, "")
    return out


def _run(*argv):
    assert cli.main([str(a) for a in argv]) in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERIC)


def _simulate(tmp_path, name, params, mode, initial, t1, outputs):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({
        "params": params, "mode": mode, "initial": initial,
        "integration": {"t_span": [0.0, t1]}, "outputs": outputs,
    }))
    _run("simulate", "--config", path, "--out", tmp_path / name)


def _surface(tmp_path):
    runs = [{"kind": "TrajectoryCsv", "path": "t.csv"}, {"kind": "InvariantsCsv", "path": "i.csv"},
            {"kind": "EventsJson", "path": "e.json"}, {"kind": "ReportJson", "path": "r.json"}]
    for omega, radius in PARAM_SETS:
        w2r2, w2r4 = omega**2 * radius**2, omega**2 * radius**4
        for k, (e, l_sq) in enumerate(UNIT_POINTS):
            l_sq *= w2r4
            e = eff_minimum(l_sq, ModelParams(omega, radius))[1] if e is None else e * w2r2
            _run("classify", e, l_sq, "--omega", omega, "--radius", radius)
            _simulate(tmp_path, f"a{omega}_{radius}_{k}", {"omega": omega, "radius": radius},
                      "Oscillator", {"analytic": {"e": e, "l_sq": l_sq}}, 8.0 / omega, runs)
    free = {"chart": "outer_plus", "q1": 0.8, "q2": 0.2, "phi": 0.1,
            "p1": 0.1, "p2": 0.2, "pphi": 0.3}
    _simulate(tmp_path, "free", {}, "Free", {"state": free}, 4.0,
              [{"kind": "FigureSet", "path": "figs", "ids": ["fig1"]}])
    inner = {"chart": "inner_minus", "q1": 0.5, "q2": 0.7, "phi": 0.0,
             "p1": 0.0, "p2": 0.1, "pphi": 0.3}
    _simulate(tmp_path, "inner", {}, "Oscillator", {"state": inner}, 4.0, runs)
    _run("verify", "all", "--points", 16, "--out", tmp_path / "verify")
    _run("figure", "all", "--out", tmp_path / "figures")


def _entered(tmp_path) -> set:
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        _surface(tmp_path)
    finally:
        sys.setprofile(None)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes}


def test_unreached_functions_are_the_listed_ones(tmp_path):
    functions = _functions()
    entered = _entered(tmp_path)
    unreached = {name for key, name in functions.items() if key not in entered}
    assert unreached - set(UNREACHED) == set(), "never entered; delete it or list it"
    assert set(UNREACHED) - unreached == set(), "entered now; take it off UNREACHED"


def test_unreached_reasons_hold():
    docs = [ROOT / "README.md", *sorted((ROOT / "bench").glob("*.py"))]
    tests = [p for p in sorted(Path(__file__).parent.glob("*.py")) if p != Path(__file__)]
    texts = {reason: "\n".join(p.read_text(encoding="utf-8") for p in paths)
             for reason, paths in (("api", docs), ("oracle", tests))}
    for name, entry in UNREACHED.items():
        reason, word = entry if isinstance(entry, tuple) else (entry, re.split("[:.]", name)[-1])
        assert reason in REASONS, name
        if reason in texts:
            assert re.search(rf"\b{re.escape(word)}\b", texts[reason]), (name, reason)
