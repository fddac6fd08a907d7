"""Run a fixed set of configs through the command line of one source tree.

Usage:

    python3 tools/run_configs.py SRC OUT [NAME ...]

SRC is the ``src`` directory of a checkout; its ``magsys_lab`` is imported
and each config runs in this process through ``magsys_lab.cli.main``, one
output directory ``OUT/<name>`` each.  The configs are the four benchmark
workloads (read from ``perfbench/workloads.py`` beside this tool, which is
executed, not imported, so nothing is written into perfbench/), every
config of the ROADMAP's Baseline census table, and a few more: runs with an
attached 1-form (one on the sphere with no conformal factor, whose area is
vol_g0 exactly), a tilted ``sphere_harmonic_axis``, the censuses of the
drift on the torus and the hyperbolic chart (the blind torus at eps 0.025
and at grid density 6, and both unperturbed), two ``sweep`` runs (one of
error reports only), a torus ``volume`` run, and ``constants`` and
``zollpoly`` at kappa 1, 0 and -1.
NAME restricts the run to those configs.

Each run's exit code, stdout and stderr go to ``OUT/<name>/run.json``, with
five work counts: ``return_maps``, the maps of ``orbits.return_map`` (one per
member of a call with a list of states, else one per call; the states are
found by the map's own signature, ``(sys, state)`` or the older ``(sys,
section, state)``), ``solves``, the
solves of ``solve_ivp`` where ``orbits`` and ``dynamics`` call it (one per
member of a stack, counted alike), ``rhs_evals``, the calls of the closures
that the ``rhs`` factory returns there, and ``abar_circles``, the rows (one
Zoll circle each) passed to ``orbits.orbit_space_average``, and
``orbits_built``, the calls of ``orbits._build_orbit`` (one per orbit that
Newton closed and sampled, kept by the census or not).  All are counted by
rebinding those module attributes for the run (restored afterwards), so the
tool runs unchanged on any tree that has them.  ``python3 tools/compare_reports.py OLD
NEW`` on the OUT directories of two trees compares them with the report
files.  The config files are written to one directory whatever SRC is
(``CONFIG_DIR``), so the provenance in ``run_meta.json`` (the config's
absolute path) matches between trees.  BLAS and OpenMP are held to one thread so that sums round alike.
"""

import contextlib
import inspect
import io
import json
import os
import sys
import tempfile
import types
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
CONFIG_DIR = Path(tempfile.gettempdir()) / "magsys-lab-run-configs"

BUMP = ("kappa = -1.0\nstrength = {s}\n[perturbation]\nfield = hyperbolic_bump\n"
        "coeffs = 1.0, 0.5\neps = 0.05\n")
TORUS_COS_X = "kappa = 0.0\nstrength = {s}\n[perturbation]\nfield = torus_cos_x\neps = {eps}\n"
TORUS_ETA = ("kappa = 0.0\nstrength = 1.0\n[perturbation]\nfield = torus_cos_y\n"
             "eta = torus_eta_sin_x\neps = 0.05\n")
SPHERE_Z = "kappa = 1.0\nstrength = {s}\n[perturbation]\nfield = sphere_harmonic_z\neps = {eps}\n"
BLIND_S = 1.0 / 2.404825557695773    # 1/j_{0,1}


def _census(body, grid_density):
    return ("systole", f"[model]\n{body}[search]\ngrid_density = {grid_density}\n")


# name: (subcommand, config text); the Baseline table first, row by row
BASELINE = {
    **{f"torus_cos_x_gd{g}": _census(TORUS_COS_X.format(s=1.0, eps=0.05), g)
       for g in (1, 2, 3, 4)},
    **{f"blind_torus_gd{g}": _census(TORUS_COS_X.format(s=BLIND_S, eps=0.05), g)
       for g in (2, 3, 4)},
    **{f"torus_eta_gd{g}": _census(TORUS_ETA, g) for g in (2, 3, 4)},
    **{f"hyperbolic_bump_gd{g}": _census(BUMP.format(s=2.0), g) for g in (2, 3, 4)},
    **{f"horocycle_gd{g}": _census(BUMP.format(s=1.0001), g) for g in (2, 3)},
    **{f"sphere_harmonic_z_s0.01_gd{g}": _census(SPHERE_Z.format(s=0.01, eps=0.05), g)
       for g in (3, 4)},
    "sphere_harmonic_z_eps0.8": _census(SPHERE_Z.format(s=1.0, eps=0.8), 3),
    "torus_cos_x_eps0.4": _census(TORUS_COS_X.format(s=1.0, eps=0.4), 3),
}
EXTRA = {
    "sphere_eta_axial": _census(SPHERE_Z.format(s=1.0, eps=0.05)
                                + "eta = sphere_eta_axial\n", 3),
    # the metric is g0: vol_g = vol_g0 with no quadrature
    "sphere_eta_only": _census("kappa = 1.0\nstrength = 1.0\n[perturbation]\n"
                               "eta = sphere_eta_axial\neps = 0.05\n", 3),
    # extrema off every coordinate axis, so off the orientation of any tiling
    "sphere_harmonic_axis": _census(SPHERE_Z.format(s=1.0, eps=0.05).replace(
        "sphere_harmonic_z", "sphere_harmonic_axis\ncoeffs = 1.0, 0.3, -0.5, 0.8"), 3),
    "hyperbolic_eta_radial": _census(BUMP.format(s=2.0) + "eta = hyperbolic_eta_radial\n", 3),
    # the drift's census on the planar charts (census-zoll-sphere runs it on the sphere)
    "blind_torus_eps0.025": _census(TORUS_COS_X.format(s=BLIND_S, eps=0.025), 3),
    "blind_torus_gd6": _census(TORUS_COS_X.format(s=BLIND_S, eps=0.05), 6),
    "zoll_torus": _census("kappa = 0.0\nstrength = 1.0\n", 3),
    "zoll_hyperbolic": _census("kappa = -1.0\nstrength = 2.0\n", 3),
    "sphere_sweep": ("sweep", "[model]\n" + SPHERE_Z.format(s=1.0, eps=0.05)
                     + "[search]\ngrid_density = 3\neps_list = 0.05, 0.1, 0.2, 0.4\n"),
    # every row an error report
    "horocycle_sweep": ("sweep", "[model]\n" + BUMP.format(s=1.0001)
                        + "[search]\ngrid_density = 2\neps_list = 0.05, 0.1\n"),
    # the oracle on the planar chart's box points
    "torus_volume": ("volume", "[model]\n" + TORUS_COS_X.format(s=1.0, eps=0.1)
                     + "eta = torus_eta_sin_x\nnormalize = false\n[search]\nsamples = 200000\n"),
    **{f"{command}_kappa{kappa:g}": (command, f"kappa = {kappa}\nstrength = {s}\n")
       for command in ("constants", "zollpoly")
       for kappa, s in ((1.0, 1.0), (0.0, 1.0), (-1.0, 2.0))},
}


def workload_configs():
    """(subcommand, config text) of each benchmark workload."""
    module = types.ModuleType("perfbench_workloads")
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[module.__name__] = module
    try:
        exec(compile(WORKLOADS_PY.read_text(encoding="utf-8"), str(WORKLOADS_PY), "exec"),
             module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return {name: (w.command, w.config) for name, w in module.WORKLOADS.items()}


def all_configs():
    return {**workload_configs(), **BASELINE, **EXTRA}


@contextlib.contextmanager
def counting(package):
    """Count return maps, solves, RHS evaluations, orbit-space circles and
    orbits built in ``package`` (the imported magsys_lab) while the block
    runs; yields the dict of counts."""
    counts = {"return_maps": 0, "solves": 0, "rhs_evals": 0, "abar_circles": 0,
              "orbits_built": 0}
    orbits, dynamics = package.orbits, package.dynamics
    plain_map, plain_rhs = orbits.return_map, dynamics.rhs
    plain_average, plain_build = orbits.orbit_space_average, orbits._build_orbit
    plain_solves = orbits.solve_ivp, dynamics.solve_ivp
    map_signature = inspect.signature(plain_map)

    def return_map(*args, **kw):
        states = map_signature.bind(*args, **kw).arguments["state"]
        counts["return_maps"] += len(states) if isinstance(states, list) else 1
        return plain_map(*args, **kw)

    def solving(plain):
        def solve_ivp(fun, t_span, y0, *args, **kw):
            counts["solves"] += len(y0) if getattr(y0, "ndim", 1) == 2 else 1
            return plain(fun, t_span, y0, *args, **kw)
        return solve_ivp

    def rhs(*args, **kw):
        f = plain_rhs(*args, **kw)

        def counted(t, y):
            counts["rhs_evals"] += 1
            return f(t, y)
        return counted

    def orbit_space_average(sys, c):
        counts["abar_circles"] += len(c)
        return plain_average(sys, c)

    def build_orbit(*args, **kw):
        counts["orbits_built"] += 1
        return plain_build(*args, **kw)

    orbits.return_map, orbits.rhs, dynamics.rhs = return_map, rhs, rhs
    orbits.orbit_space_average, orbits._build_orbit = orbit_space_average, build_orbit
    orbits.solve_ivp, dynamics.solve_ivp = map(solving, plain_solves)
    try:
        yield counts
    finally:
        orbits.return_map, orbits.rhs, dynamics.rhs = plain_map, plain_rhs, plain_rhs
        orbits.orbit_space_average, orbits._build_orbit = plain_average, plain_build
        orbits.solve_ivp, dynamics.solve_ivp = plain_solves


def run_one(cli, name, command, text, out, config_dir):
    """Run one config and write its run.json; returns the exit code."""
    config_dir.mkdir(parents=True, exist_ok=True)
    path = config_dir / f"{name}.cfg"
    path.write_text(text, encoding="utf-8")
    outdir = out / name
    outdir.mkdir(parents=True, exist_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            counting(sys.modules[cli.__package__]) as counts:
        code = cli.main([command, "--config", str(path), "--out", str(outdir)])
    run = {"command": command, "exit_code": code,
           "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), **counts}
    (outdir / "run.json").write_text(json.dumps(run, indent=2) + "\n", encoding="utf-8")
    return code


def main(argv, config_dir=CONFIG_DIR):
    if len(argv) < 2:
        print("usage: python3 tools/run_configs.py SRC OUT [NAME ...]", file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1])
    sys.path.insert(0, str(src))
    from magsys_lab import cli
    if Path(cli.__file__).resolve().parent != src / "magsys_lab":
        print(f"magsys_lab was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    configs = all_configs()
    names = argv[2:] or list(configs)
    unknown = [n for n in names if n not in configs]
    if unknown:
        print(f"unknown config(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    for name in names:
        command, text = configs[name]
        print(f"{name}: exit {run_one(cli, name, command, text, out, config_dir)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
