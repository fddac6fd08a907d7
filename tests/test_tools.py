"""tools/compare_reports.py: one line per JSON key and CSV column, "identical"
or the largest |difference|, and an exit status that says whether all match.
tools/run_configs.py: each config's outputs and run.json, which
compare_reports reads."""

import json
import math
import runpy
import types
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent.parent / "tools"
SRC = TOOLS.parent / "src"
main = runpy.run_path(str(TOOLS / "compare_reports.py"))["main"]


def write_run(path, lengths, verdict="PASS", x=(0.5, 0.25)):
    path.mkdir()
    (path / "report.json").write_text(json.dumps(
        {"magnetic_lengths": lengths, "verdict_reduced": verdict, "config": {"eps": 0.05}}))
    (path / "orbit_a.csv").write_text("t,x\n" + "".join(f"{i},{v}\n" for i, v in enumerate(x)))


def test_identical_runs(tmp_path, capsys):
    write_run(tmp_path / "old", [2.5, 2.75])
    write_run(tmp_path / "new", [2.5, 2.75])
    assert main([str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and all(line.endswith(": identical") for line in lines)


def test_largest_difference_and_non_numeric_change(tmp_path, capsys):
    write_run(tmp_path / "old", [2.5, 2.75])
    write_run(tmp_path / "new", [2.5, 2.875], verdict="FAIL", x=(0.5, 0.3125))
    (tmp_path / "new" / "volume.json").write_text("{}")
    assert main([str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    out = capsys.readouterr().out
    assert "report.json: magnetic_lengths: max |diff| 0.125" in out
    assert "report.json: verdict_reduced: changed at value: 'PASS' -> 'FAIL'" in out
    assert "report.json: config: identical" in out
    assert "orbit_a.csv: x: max |diff| 0.0625" in out
    assert "orbit_a.csv: t: identical" in out
    assert "volume.json: only in NEW" in out


def test_changed_entry_count(tmp_path, capsys):
    write_run(tmp_path / "old", [2.5, 2.75])
    write_run(tmp_path / "new", [2.5])
    assert main([str(tmp_path / "old" / "report.json"),
                 str(tmp_path / "new" / "report.json")]) == 1
    assert "magnetic_lengths: changed shape: 2 -> 1 entries" in capsys.readouterr().out


def test_run_configs_writes_what_compare_reports_reads(tmp_path, capsys):
    run_configs = runpy.run_path(str(TOOLS / "run_configs.py"))
    configs = run_configs["all_configs"]()
    # the four benchmark workloads and the Baseline table's 19 configs
    assert {"census-zoll-sphere", "census-perturbed-sphere", "census-perturbed-torus",
            "volume-oracle-sphere"} <= set(configs)
    assert len(run_configs["BASELINE"]) == 19
    for side in ("old", "new"):
        assert run_configs["main"]([str(SRC), str(tmp_path / side), "torus_cos_x_gd1",
                                    "horocycle_gd2"], tmp_path / "configs") == 0
    capsys.readouterr()
    run = json.loads((tmp_path / "old" / "torus_cos_x_gd1" / "run.json").read_text())
    assert run["exit_code"] == 0 and run["stdout"].startswith("orbits=2 ")
    assert "eps may exceed" in json.loads(
        (tmp_path / "old" / "horocycle_gd2" / "run.json").read_text())["stderr"]
    assert main([str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    out = capsys.readouterr().out
    assert "torus_cos_x_gd1/run.json: stdout: identical" in out
    assert "torus_cos_x_gd1/run_meta.json: provenance: identical" in out
    assert "torus_cos_x_gd1/orbit_contour_0.csv: x: identical" in out


def test_run_configs_counts_return_maps_and_rhs_evaluations(tmp_path, monkeypatch):
    # the RHS count is checked against the stepper's own nfev over every solve
    from magsys_lab import dynamics, orbits
    plain_map, plain_rhs, nfev = orbits.return_map, dynamics.rhs, []
    plain_average, plain_build = orbits.orbit_space_average, orbits._build_orbit
    for module in (orbits, dynamics):
        solve = module.solve_ivp

        def counted(*args, _solve=solve, **kw):
            sol = _solve(*args, **kw)
            nfev.append(sol.nfev)
            return sol
        monkeypatch.setattr(module, "solve_ivp", counted)
    run_configs = runpy.run_path(str(TOOLS / "run_configs.py"))
    assert run_configs["main"]([str(SRC), str(tmp_path / "out"), "torus_cos_x_gd1"],
                               tmp_path / "configs") == 0
    run = json.loads((tmp_path / "out" / "torus_cos_x_gd1" / "run.json").read_text())
    # one solve per map: the 12 maps' solves, counted one per stack member
    assert run["solves"] == run["return_maps"] == 12
    assert run["rhs_evals"] == sum(nfev) > 0
    # the 12 x 12 tiling's gradient stencils, 5 circles each, and the 3 x 3
    # models of its two starts, at rest there
    assert run["abar_circles"] == 144 * 5 + 2 * 9
    assert run["orbits_built"] == 2                   # one per line, each closed once
    assert orbits.return_map is plain_map
    assert orbits.rhs is dynamics.rhs is plain_rhs
    assert orbits.orbit_space_average is plain_average
    assert orbits._build_orbit is plain_build
    # a call with a list of states counts one map per member, whether the map
    # takes (sys, section, state) or (sys, state); a call of the orbit-space
    # average one circle per row, a stacked solve one solve per member, a
    # call of the orbit builder one orbit
    def with_section(sys, section, state, tol=1e-10, path=math.inf):
        return state

    def anchored(sys, state, tol=1e-10, path=math.inf):
        return state

    for plain_map, calls in (
            (with_section, [(("sys", ["a", "b", "c"], ["x", "y", "z"]), {}),
                            (("sys", "a", "x"), {}),
                            (("sys", ["a", "b"]), dict(state=["x", "y"], tol=1e-9))]),
            (anchored, [(("sys", ["x", "y", "z"]), {}), (("sys", "x", 1e-9), {}),
                        (("sys",), dict(state=["x", "y"], path=None))])):
        package = types.SimpleNamespace(
            orbits=types.SimpleNamespace(return_map=plain_map,
                                         orbit_space_average=lambda sys, c: c,
                                         _build_orbit=lambda *args, **kw: None,
                                         solve_ivp=lambda f, span, y0, **kw: y0),
            dynamics=types.SimpleNamespace(rhs=plain_rhs,
                                           solve_ivp=lambda f, span, y0, **kw: y0))
        with run_configs["counting"](package) as counts:
            for args, kw in calls:
                package.orbits.return_map(*args, **kw)
            package.orbits.orbit_space_average("sys", [[0.0, 1.0]] * 4)
            package.orbits.orbit_space_average("sys", [[0.0, 1.0]] * 5)
            package.orbits.solve_ivp(None, (0.0, 1.0), np.zeros((3, 4)), rtol=1e-9)
            package.dynamics.solve_ivp(None, (0.0, 1.0), np.zeros(4))
            package.orbits._build_orbit("sys", "center", 1.0, "path", "seed")
        assert counts["return_maps"] == 6, plain_map.__name__
        assert counts["abar_circles"] == 9
        assert counts["solves"] == 4
        assert counts["orbits_built"] == 1
        assert package.orbits.return_map is plain_map
