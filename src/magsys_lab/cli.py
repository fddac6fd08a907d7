"""Command-line front end.

Subcommands: orbit, sweep, systole, volume, zollpoly, constants.  All are
driven by a small sectioned config file:

    # comment
    [model]
    kappa = 1.0
    strength = 1.0

    [perturbation]
    field = sphere_harmonic_z
    eps = 0.05
    normalize = true

    [search]
    grid_density = 3
    eps_list = 0.01, 0.02, 0.04

    [output]
    out = results

Keys appearing before any section header belong to [model].  Unknown
sections or keys are errors (no silent typos).  Exit codes: 0 all verdicts
PASS, 2 at least one verdict FAIL, 1 error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys as _sys
from dataclasses import replace

from . import functionals, orbits, reporting, syslab, volume, zollref
from .errors import MagsysError, ParseError, ValidationError

_KEY_SCHEMA = {
    ("model", "kappa"): float,
    ("model", "strength"): float,
    ("model", "n"): int,
    ("perturbation", "field"): str,
    ("perturbation", "coeffs"): "floats",
    ("perturbation", "eps"): float,
    ("perturbation", "eta"): str,
    ("perturbation", "eta_coeffs"): "floats",
    ("perturbation", "normalize"): bool,
    ("search", "grid_density"): int,
    ("search", "tol_orbit"): float,
    ("search", "tol_quad"): float,
    ("search", "equality_tol"): float,
    ("search", "ineq_tol"): float,
    ("search", "max_iter"): int,
    ("search", "eps_list"): "floats",
    ("search", "samples"): int,
    ("search", "workers"): int,
    ("search", "rng_seed"): int,
    ("output", "out"): str,
}
_SECTIONS = ("model", "perturbation", "search", "output")


def _convert(raw, typ, key, lineno):
    try:
        if typ is float:
            return float(raw)
        if typ is int:
            return int(raw)
        if typ is bool:
            low = raw.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        if typ == "floats":
            return tuple(float(tok) for tok in raw.replace(",", " ").split())
        return raw
    except ValueError as exc:
        raise ValidationError(
            f"line {lineno}: cannot parse value {raw!r} for key {key!r}") from exc


def read_config_file(path):
    """Parse the sectioned key = value format into {(section, key): value}."""
    values = {}
    section = "model"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if text.startswith("["):
            if not text.endswith("]"):
                raise ParseError(f"line {lineno}: malformed section header {text!r}")
            section = text[1:-1].strip()
            if section not in _SECTIONS:
                raise ValidationError(
                    f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in text:
            raise ParseError(f"line {lineno}: expected 'key = value', got {text!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        if (section, key) not in _KEY_SCHEMA:
            raise ValidationError(
                f"line {lineno}: unknown key {key!r} in section [{section}]")
        if (section, key) in values:
            raise ValidationError(f"line {lineno}: duplicate key {key!r}")
        values[(section, key)] = _convert(raw, _KEY_SCHEMA[(section, key)],
                                          key, lineno)
    return values


def parse_config(path):
    """Validated ExperimentConfig plus output/extras and provenance."""
    values = read_config_file(path)
    for required in (("model", "kappa"), ("model", "strength")):
        if required not in values:
            raise ValidationError(f"config is missing required key {required[1]!r}")

    def get(section, key, default):
        return values.get((section, key), default)

    cfg = syslab.ExperimentConfig(
        kappa=values[("model", "kappa")],
        strength=values[("model", "strength")],
        n=get("model", "n", 1),
        perturbation_name=get("perturbation", "field", None),
        perturbation_coeffs=get("perturbation", "coeffs", (1.0,)),
        eps=get("perturbation", "eps", 0.0),
        eta_name=get("perturbation", "eta", None),
        eta_coeffs=get("perturbation", "eta_coeffs", (1.0,)),
        normalize=get("perturbation", "normalize", True),
        grid_density=get("search", "grid_density", 3),
        tol_orbit=get("search", "tol_orbit", 1e-9),
        tol_quad=get("search", "tol_quad", 1e-9),
        equality_tol=get("search", "equality_tol", 1e-5),
        ineq_tol=get("search", "ineq_tol", 1e-4),
        rng_seed=get("search", "rng_seed", 0),
        workers=get("search", "workers", 1),
        max_iter=get("search", "max_iter", 25),
    )
    # surface regime problems at parse time, with the offending numbers
    zollref.check_zoll_regime(cfg.kappa, cfg.strength)
    samples = get("search", "samples", 1_000_000)
    volume.check_samples(samples)
    extras = {
        "eps_list": get("search", "eps_list", (0.0,)),
        "samples": samples,
        "out": get("output", "out", "."),
    }
    provenance = {
        "config_file": os.path.abspath(path),
        "keys_from_file": sorted(f"{s}.{k}" for (s, k) in values),
        "defaulted_keys": sorted(f"{s}.{k}" for (s, k) in _KEY_SCHEMA
                                 if (s, k) not in values),
    }
    return cfg, extras, provenance


# --- subcommands ---------------------------------------------------------------

_SUMMARY_COLS = ["eps", "orbit_count", "l_min", "l_max", "slack_lower",
                 "slack_upper", "vol_g", "zoll_flag", "verdict_reduced",
                 "verdict_two_sided", "verdict_full", "error"]


def _emit_experiment(sys, found, report, extras, provenance, outdir, prefix=""):
    reporting.ensure_outdir(outdir)
    doc = report.to_dict()
    reporting.write_json(doc, os.path.join(outdir, f"{prefix}report.json"))
    reporting.write_csv(syslab.sweep_table([report]), _SUMMARY_COLS,
                        os.path.join(outdir, f"{prefix}summary.csv"))
    reporting.write_json({"provenance": provenance},
                         os.path.join(outdir, f"{prefix}run_meta.json"))
    for orb in found or []:
        reporting.orbit_samples_csv(
            sys, orb, os.path.join(outdir, f"{prefix}orbit_{orb.seed_id}.csv"))


def _exit_code(verdicts):
    if any(v == "ERROR" for v in verdicts):
        return 2
    return 0 if all(v == "PASS" for v in verdicts) else 2


def cmd_systole(cfg, extras, provenance, args):
    report, sys_p, found = syslab.run_experiment_full(cfg)
    _emit_experiment(sys_p, found, report, extras, provenance, extras["out"])
    print(f"orbits={report.orbit_count} l_min={report.l_min:.9g} "
          f"l_max={report.l_max:.9g} reference={report.reference:.9g} "
          f"zoll_flag={report.zoll_flag}")
    for name, verdict in zip(("reduced", "two_sided", "full"),
                             report.all_verdicts()):
        print(f"verdict[{name}] = {verdict}")
    return _exit_code(report.all_verdicts())


def cmd_orbit(cfg, extras, provenance, args):
    sys0, sys_p = syslab.build_system(cfg)
    found = orbits.enumerate_orbits(sys_p, grid_density=cfg.grid_density,
                                    tol=cfg.tol_orbit, max_iter=cfg.max_iter,
                                    workers=cfg.workers, rng_seed=cfg.rng_seed)
    outdir = extras["out"]
    reporting.ensure_outdir(outdir)
    records = [{"seed_id": orb.seed_id, "period": orb.period,
                "residual": orb.residual,
                "magnetic_length": lmag}
               for orb, lmag in zip(found, found.magnetic_lengths)]
    reporting.write_json({"orbits": records, "provenance": provenance},
                         os.path.join(outdir, "orbits.json"))
    for orb in found:
        reporting.orbit_samples_csv(sys_p, orb,
                                    os.path.join(outdir, f"orbit_{orb.seed_id}.csv"))
    print(f"found {len(found)} distinct closed orbits")
    return 0


def cmd_sweep(cfg, extras, provenance, args):
    reports = syslab.sweep(cfg, extras["eps_list"])
    outdir = extras["out"]
    reporting.ensure_outdir(outdir)
    reporting.write_csv(syslab.sweep_table(reports), _SUMMARY_COLS,
                        os.path.join(outdir, "summary.csv"))
    reporting.write_json({"provenance": provenance,
                          "eps_list": list(extras["eps_list"]),
                          "runs": [rep.to_dict() for rep in reports]},
                         os.path.join(outdir, "sweep_meta.json"))
    verdicts = []
    for rep in reports:
        verdicts.extend(rep.all_verdicts())
        print(f"eps={rep.config['eps']:g}: verdicts {rep.all_verdicts()} "
              f"slack_lower={rep.slack_lower:.3g}")
    return _exit_code(verdicts)


def cmd_volume(cfg, extras, provenance, args):
    sys0, sys_p = syslab.build_system(cfg)
    rep = volume.volume_report(sys0, sys_p, samples=extras["samples"],
                               rng_seed=cfg.rng_seed)
    agree = abs(rep.quadrature - rep.closed_form) <= 3.0 * rep.std_error
    doc = {"closed_form": rep.closed_form, "quadrature": rep.quadrature,
           "std_error": rep.std_error, "samples": rep.samples,
           "constant_convention": rep.constant_convention,
           "verdict_3sigma": "PASS" if agree else "FAIL",
           "provenance": provenance}
    reporting.ensure_outdir(extras["out"])
    reporting.write_json(doc, os.path.join(extras["out"], "volume.json"))
    print(f"closed_form={rep.closed_form:.9g} quadrature={rep.quadrature:.9g} "
          f"std_error={rep.std_error:.3g} verdict={doc['verdict_3sigma']}")
    return 0 if agree else 2


def cmd_zollpoly(cfg, extras, provenance, args):
    ref = zollref.reference_length(cfg.kappa, cfg.strength)
    amin = -0.5 * ref if args.amin is None else args.amin
    amax = 0.5 * ref if args.amax is None else args.amax
    num = args.num
    vol_g0 = zollref.make_reference(cfg.kappa, cfg.strength, cfg.n).vol_g0
    have_generic = cfg.kappa >= 0
    if have_generic:
        coh = zollref.kahler_bundle_pairings(cfg.kappa, cfg.strength, cfg.n, vol_g0)
    cols = ["A", "P_kahler"] + (["P_generic"] if have_generic else [])
    rows = []
    for i in range(num):
        a = amin + (amax - amin) * i / max(num - 1, 1)
        row = {"A": a,
               "P_kahler": zollref.zoll_polynomial_kahler(
                   cfg.kappa, cfg.strength, cfg.n, vol_g0, a)}
        if have_generic:
            row["P_generic"] = zollref.zoll_polynomial_generic(coh, a)
        rows.append(row)
    text = reporting.csv_text(rows, cols)
    print(text, end="")
    if args.out_given:
        reporting.ensure_outdir(extras["out"])
        reporting.write_text(text, os.path.join(extras["out"], "zollpoly.csv"))
    return 0


def cmd_constants(cfg, extras, provenance, args):
    ref = zollref.make_reference(cfg.kappa, cfg.strength, cfg.n)
    doc = {
        "kappa": ref.kappa, "strength": ref.strength, "n": ref.n,
        "a1": math.sqrt(ref.a1_squared), "a1_squared": ref.a1_squared,
        "reference_magnetic_length": ref.reference_magnetic_length,
        "reference_period": 2.0 * math.pi / math.sqrt(ref.strength**2 + ref.kappa),
        "closed_form_flux": functionals.closed_form_flux(ref.kappa, ref.strength),
        "vol_g0": ref.vol_g0,
        "k_tilde": zollref.k_tilde(cfg.kappa, cfg.strength, cfg.n)
        if cfg.kappa != 0 else None,
        "inequality_constant_C": zollref.inequality_constant_C(
            cfg.kappa, cfg.strength, cfg.n, ref.vol_g0)
        if cfg.kappa != 0 else None,
        "provenance": provenance,
    }
    if args.out_given:
        reporting.ensure_outdir(extras["out"])
        reporting.write_json(doc, os.path.join(extras["out"], "constants.json"))
    for key, val in doc.items():
        if key == "provenance":
            continue
        if isinstance(val, float):
            print(f"{key} = {reporting.fmt_float(val)}")
        else:
            print(f"{key} = {val}")
    return 0


_COMMANDS = {
    "orbit": cmd_orbit,
    "sweep": cmd_sweep,
    "systole": cmd_systole,
    "volume": cmd_volume,
    "zollpoly": cmd_zollpoly,
    "constants": cmd_constants,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="magsys-lab",
        description="Magnetic geodesic flows and local systolic inequalities "
                    "on constant-curvature model surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="rng seed override")
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--tol-orbit", type=float, default=None, dest="tol_orbit")
        p.add_argument("--tol-quad", type=float, default=None, dest="tol_quad")
        if name == "zollpoly":
            p.add_argument("--amin", type=float, default=None)
            p.add_argument("--amax", type=float, default=None)
            p.add_argument("--num", type=int, default=21)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg, extras, provenance = parse_config(args.config)
        overrides = {}
        if args.seed is not None:
            overrides["rng_seed"] = args.seed
        if args.workers is not None:
            overrides["workers"] = args.workers
        if args.tol_orbit is not None:
            overrides["tol_orbit"] = args.tol_orbit
        if args.tol_quad is not None:
            overrides["tol_quad"] = args.tol_quad
        if overrides:
            cfg = replace(cfg, **overrides)
        args.out_given = args.out is not None
        if args.out is not None:
            extras["out"] = args.out
        return _COMMANDS[args.command](cfg, extras, provenance, args)
    except MagsysError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
