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
sections or keys are errors (no silent typos).  A key the file omits keeps
its ExperimentConfig default.  Each subcommand accepts only the flags it
reads (``_COMMANDS``).  Exit codes: 0 all verdicts PASS, 2 at least one
verdict FAIL, 1 error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys as _sys
from dataclasses import replace

from . import dynamics, functionals, orbits, reporting, syslab, volume, zollref
from .errors import MagsysError, ParseError, ValidationError

# (section, key) -> (value type, the ExperimentConfig field it sets or None)
_KEY_SCHEMA = {
    ("model", "kappa"): (float, "kappa"),
    ("model", "strength"): (float, "strength"),
    ("model", "n"): (int, "n"),
    ("perturbation", "field"): (str, "perturbation_name"),
    ("perturbation", "coeffs"): ("floats", "perturbation_coeffs"),
    ("perturbation", "eps"): (float, "eps"),
    ("perturbation", "eta"): (str, "eta_name"),
    ("perturbation", "eta_coeffs"): ("floats", "eta_coeffs"),
    ("perturbation", "normalize"): (bool, "normalize"),
    ("search", "grid_density"): (int, "grid_density"),
    ("search", "tol_orbit"): (float, "tol_orbit"),
    ("search", "tol_quad"): (float, "tol_quad"),
    ("search", "equality_tol"): (float, "equality_tol"),
    ("search", "ineq_tol"): (float, "ineq_tol"),
    ("search", "max_iter"): (int, "max_iter"),
    ("search", "eps_list"): ("floats", None),
    ("search", "samples"): (int, None),
    ("search", "workers"): (int, "workers"),
    ("search", "rng_seed"): (int, "rng_seed"),
    ("output", "out"): (str, None),
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
        values[(section, key)] = _convert(raw, _KEY_SCHEMA[(section, key)][0],
                                          key, lineno)
    return values


def parse_config(path):
    """Validated ExperimentConfig plus output/extras and provenance."""
    values = read_config_file(path)
    for required in (("model", "kappa"), ("model", "strength")):
        if required not in values:
            raise ValidationError(f"config is missing required key {required[1]!r}")

    # the file's keys only: every other field keeps its ExperimentConfig default
    cfg = syslab.ExperimentConfig(**{field: values[key]
                                     for key, (_, field) in _KEY_SCHEMA.items()
                                     if field is not None and key in values})
    # surface regime problems at parse time, with the offending numbers
    zollref.check_zoll_regime(cfg.kappa, cfg.strength)
    samples = values.get(("search", "samples"), 1_000_000)
    volume.check_samples(samples)
    eps_list = values.get(("search", "eps_list"), (0.0,))
    for eps in eps_list:    # each entry is checked as a config now, before any census
        replace(cfg, eps=eps)
    extras = {
        "eps_list": eps_list,
        "samples": samples,
        "out": values.get(("output", "out")),
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


def _outdir(extras):
    """The output directory (--out, else [output] out, else the working
    directory), created if missing."""
    outdir = "." if extras["out"] is None else extras["out"]
    reporting.ensure_outdir(outdir)
    return outdir


def _exit_code(verdicts):
    return 0 if all(v == "PASS" for v in verdicts) else 2


def cmd_systole(cfg, extras, provenance, args):
    report, sys_p, found = syslab.run_experiment_full(cfg)
    outdir = _outdir(extras)
    reporting.write_json(report.to_dict(), os.path.join(outdir, "report.json"))
    reporting.write_csv(syslab.sweep_table([report]), _SUMMARY_COLS,
                        os.path.join(outdir, "summary.csv"))
    reporting.write_json({"provenance": provenance},
                         os.path.join(outdir, "run_meta.json"))
    for orb in found:
        reporting.orbit_samples_csv(
            sys_p, orb, os.path.join(outdir, f"orbit_{orb.seed_id}.csv"))
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
    outdir = _outdir(extras)
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
    outdir = _outdir(extras)
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
    reporting.write_json(doc, os.path.join(_outdir(extras), "volume.json"))
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
    if extras["out"] is not None:
        reporting.write_text(text, os.path.join(_outdir(extras), "zollpoly.csv"))
    return 0


def cmd_constants(cfg, extras, provenance, args):
    ref = zollref.make_reference(cfg.kappa, cfg.strength, cfg.n)
    doc = {
        "kappa": ref.kappa, "strength": ref.strength, "n": ref.n,
        "a1": math.sqrt(ref.a1_squared), "a1_squared": ref.a1_squared,
        "reference_magnetic_length": ref.reference_magnetic_length,
        "reference_period": dynamics.reference_period(ref),
        "closed_form_flux": functionals.closed_form_flux(ref.kappa, ref.strength),
        "vol_g0": ref.vol_g0,
        "k_tilde": zollref.k_tilde(cfg.kappa, cfg.strength, cfg.n)
        if cfg.kappa != 0 else None,
        "inequality_constant_C": zollref.inequality_constant_C(
            cfg.kappa, cfg.strength, cfg.n, ref.vol_g0)
        if cfg.kappa != 0 else None,
        "provenance": provenance,
    }
    if extras["out"] is not None:
        reporting.write_json(doc, os.path.join(_outdir(extras), "constants.json"))
    for key, val in doc.items():
        if key == "provenance":
            continue
        if isinstance(val, float):
            print(f"{key} = {reporting.fmt_float(val)}")
        else:
            print(f"{key} = {val}")
    return 0


# flag -> (the ExperimentConfig field it overrides, value type)
_FLAGS = {
    "--seed": ("rng_seed", int),
    "--workers": ("workers", int),
    "--tol-orbit": ("tol_orbit", float),
    "--tol-quad": ("tol_quad", float),
}

# subcommand -> (function, the flags it reads)
_COMMANDS = {
    "orbit": (cmd_orbit, tuple(_FLAGS)),
    "sweep": (cmd_sweep, tuple(_FLAGS)),
    "systole": (cmd_systole, tuple(_FLAGS)),
    "volume": (cmd_volume, ("--seed", "--tol-quad")),
    "zollpoly": (cmd_zollpoly, ()),
    "constants": (cmd_constants, ()),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="magsys-lab",
        description="Magnetic geodesic flows and local systolic inequalities "
                    "on constant-curvature model surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--out", default=None, help="output directory")
        for flag in flags:
            field, typ = _FLAGS[flag]
            # absent unless given, so that only given flags override the file
            p.add_argument(flag, type=typ, dest=field, default=argparse.SUPPRESS,
                           help=f"overrides [search] {field}")
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
        given = vars(args)
        cfg = replace(cfg, **{field: given[field] for field, _ in _FLAGS.values()
                              if field in given})
        if args.out is not None:
            extras["out"] = args.out
        return _COMMANDS[args.command][0](cfg, extras, provenance, args)
    except MagsysError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
