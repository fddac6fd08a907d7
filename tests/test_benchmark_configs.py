"""The benchmark's workload configs stay valid inputs of the program, the
functions its tracer rebinds still exist, the package neither imports nor
loads scipy, and the census workloads keep their return-map and RHS budgets
and recorded lengths.

perfbench/ holds no package modules; workloads.py is read and run here and
tracer.py only parsed, so the suite writes nothing (not even a bytecode
cache) into perfbench/.
"""

import ast
import importlib
import subprocess
import sys
import types
from pathlib import Path

import pytest

from magsys_lab.cli import parse_config
from magsys_lab.zollref import reference_length

from instruments import map_count

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "magsys_lab"
WORKLOADS_PY = PERFBENCH / "workloads.py"
TRACER_PY = PERFBENCH / "tracer.py"


def load_workloads():
    module = types.ModuleType("perfbench_workloads")
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[module.__name__] = module
    try:
        exec(compile(WORKLOADS_PY.read_text(encoding="utf-8"), str(WORKLOADS_PY), "exec"),
             module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_config_parses(tmp_path, name):
    w = workloads.WORKLOADS[name]
    path = tmp_path / f"{name}.cfg"
    path.write_text(w.config, encoding="utf-8")
    cfg, extras, _ = parse_config(str(path))
    assert (cfg.kappa, cfg.strength) == (w.kappa, w.strength)
    if not w.is_census:
        assert extras["samples"] == w.recorded["samples"]


@pytest.mark.parametrize("kappa,strength",
                         [(1.0, 1.0), (0.0, 1.0), (-1.0, 2.0), (4.0, 0.5), (-0.99, 1.0)])
def test_zoll_length_agrees_with_zollref(kappa, strength):
    assert workloads.zoll_magnetic_length(kappa, strength) == pytest.approx(
        reference_length(kappa, strength), rel=1e-12)


def tracer_constants():
    """The literal module-level tuples of perfbench/tracer.py, by name."""
    tree = ast.parse(TRACER_PY.read_text(encoding="utf-8"), str(TRACER_PY))
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            try:
                out[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                pass
    return out


def test_tracer_hooks_exist():
    # a renamed hook makes the traced benchmark raise TraceError; fail here first
    consts = tracer_constants()
    package = consts["PACKAGE"]
    hooks = [entry[:2] for entry in consts["TARGETS"]] + list(consts["RHS_TARGETS"])
    assert hooks
    missing = [f"{module}.{attr}" for module, attr in hooks
               if not hasattr(importlib.import_module(f"{package}.{module}"), attr)]
    assert missing == []


def test_no_scipy_import_in_the_package():
    # the package steps its flow with its own DOP853 (magsys_lab.ode); scipy
    # costs more to import than a census takes to run
    imports = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imports += [(path.name, alias.name) for alias in node.names
                            if alias.name.split(".")[0] == "scipy"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
                imports.append((path.name, node.module))
    assert imports == []


def test_setup_loads_no_scipy(tmp_path):
    # what perfbench/setup_probe.py times, in a fresh interpreter
    path = tmp_path / "census.cfg"
    path.write_text(workloads.WORKLOADS["census-perturbed-sphere"].config, encoding="utf-8")
    script = (f"import sys; sys.path.insert(0, {str(PACKAGE_DIR.parent)!r})\n"
              "import magsys_lab, magsys_lab.cli\n"
              "from magsys_lab import syslab\n"
              f"syslab.build_system(magsys_lab.cli.parse_config({str(path)!r})[0])\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


# return maps a census workload may take: on the perturbed ones Newton runs
# only from the critical points of the orbit-space average, about 4 maps
# each; on the Zoll sphere the 12 drift samples close with one period, and
# vertex 0's map, the one that keeps a path, closes its one seed
CENSUS_RETURN_MAPS = {"census-perturbed-sphere": 12, "census-perturbed-torus": 16,
                      "census-zoll-sphere": 12}
# RHS evaluations of the whole census: 3290 and 5361 with the maps at a tenth
# of tol_orbit and the Jacobian maps at ivp_tol / DRIFT_FD_STEP; 3999 on the
# Zoll sphere, 4836 with a path (dense-output stages) for each drift sample
CENSUS_RHS_EVALS = {"census-perturbed-sphere": 3400, "census-perturbed-torus": 5500,
                    "census-zoll-sphere": 4000}


@pytest.mark.parametrize("name", sorted(CENSUS_RETURN_MAPS))
def test_perturbed_census_return_maps(tmp_path, monkeypatch, name):
    from magsys_lab import dynamics, orbits, run_experiment
    w = workloads.WORKLOADS[name]
    path = tmp_path / f"{name}.cfg"
    path.write_text(w.config, encoding="utf-8")
    cfg, _, _ = parse_config(str(path))
    calls = []
    plain = orbits.return_map

    def counted(*args, **kw):
        calls.extend([1] * map_count(plain, args, kw))
        return plain(*args, **kw)

    monkeypatch.setattr(orbits, "return_map", counted)
    evals = []
    plain_rhs = dynamics.rhs

    def counted_rhs(*args, **kw):
        f = plain_rhs(*args, **kw)

        def g(t, y):
            evals.append(1)
            return f(t, y)
        return g

    monkeypatch.setattr(orbits, "rhs", counted_rhs)
    monkeypatch.setattr(dynamics, "rhs", counted_rhs)
    rep = run_experiment(cfg)
    assert len(calls) <= CENSUS_RETURN_MAPS[name]
    assert len(evals) <= CENSUS_RHS_EVALS[name]
    for key, recorded in w.recorded.items():
        assert abs(getattr(rep, key) - recorded) <= w.tol_orbit
