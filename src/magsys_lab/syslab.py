"""Systolic experiments: build, enumerate, measure, and judge.

``run_experiment`` drives the full pipeline for one configuration: build the
(possibly perturbed) system, enumerate closed orbits (``orbits.enumerate_orbits``:
Newton from the zeros of the reduced field bracketed on a fixed tiling of the
orbit space, the gradient of the orbit-space average, or the drift where
first order is blind), evaluate magnetic lengths, and populate inequality
verdicts with slack values.  ``seeds_attempted`` counts the Newton seeds.

Verdict conventions.  The reduced inequality (``verdict_reduced``) is
l_min <= pi a^2(1) + tol.  The two-sided sandwich (``verdict_two_sided``)
is l_min <= pi a^2(1) <= l_max within tol, recorded together with the Zoll
polynomial values P(l_min - pi a^2(1)) and P(l_max - pi a^2(1)); near zero P
is monotone (increasing when its leading constant is positive), so the
P-form and the l-form of the sandwich are equivalent.  The full-constant
inequality (``verdict_full``) is evaluated in the derivation-consistent
affine form

    (l_min / (pi a^2(1)))^{2n} <= 1 + C * (vol_g - vol_g0),

whose coefficient is ``zollref.full_coefficient`` (``inequality_constant_C``
at kappa != 0); the volume-ratio reading C * vol_g/vol_g0 is also recorded
as data (it cannot hold at the Zoll point for these models since C < 1
there).

A FAIL verdict is data, not an error: reports carry the Newton seeds and
the short-loop window so a failure can be attributed to census
incompleteness.  A census with no orbit raises NoOrbitsFound, which names
its cause: grid_density 0, no critical point bracketed in the searched
region, or seeds that all failed.
"""

from __future__ import annotations

import math
import typing
from dataclasses import asdict, dataclass, field, fields

from . import orbits, zollref
from .config import ExperimentConfig
from .errors import MagsysError, NoOrbitsFound, ValidationError
from .fields import OneForm, ScalarField
from .geometry import (conformal_perturb, make_model, riemannian_volume,
                       with_sigma_perturbation)


@dataclass(kw_only=True)
class ExperimentReport:
    """The document of report.json, one key per field in field order.  Each
    default is the field's value in an error report (a run that raised)."""

    config: dict
    orbit_count: int = 0
    periods: list = field(default_factory=list)
    magnetic_lengths: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    seed_ids: list = field(default_factory=list)
    l_min: float = math.nan
    l_max: float = math.nan
    reference: float
    slack_lower: float = math.nan
    slack_upper: float = math.nan
    vol_g: float = math.nan
    vol_g0: float = math.nan
    p_at_lmin: float = math.nan
    p_at_lmax: float = math.nan
    zoll_flag: bool = False
    verdict_reduced: str = "ERROR"
    verdict_two_sided: str = "ERROR"
    verdict_full: str = "ERROR"
    full_lhs: float = math.nan
    full_rhs_affine: float = math.nan
    full_rhs_ratio: float | None = None
    seeds_attempted: int = 0
    short_loop_window: float = orbits.SHORT_LOOP_PERIOD_WINDOW
    error: str | None = None

    def to_dict(self):
        return asdict(self)

    def all_verdicts(self):
        return [self.verdict_reduced, self.verdict_two_sided, self.verdict_full]


def validate_report_doc(doc):
    """Schema check for an emitted experiment report document: exactly the
    keys of ExperimentReport, each of its field's type, where a float also
    accepts an int and null stands for NaN (``reporting.sanitize``) or None."""
    if not isinstance(doc, dict):
        raise ValidationError("report document must be a JSON object")
    hints = typing.get_type_hints(ExperimentReport)
    for f in fields(ExperimentReport):
        if f.name not in doc:
            raise ValidationError(f"report document missing key {f.name!r}")
        accepted = typing.get_args(hints[f.name]) or (hints[f.name],)
        if float in accepted:
            accepted += (int,)
        if isinstance(f.default, float) and math.isnan(f.default):
            accepted += (type(None),)
        if not isinstance(doc[f.name], accepted):
            raise ValidationError(f"report key {f.name!r} has wrong type")
    extra = set(doc) - {f.name for f in fields(ExperimentReport)}
    if extra:
        raise ValidationError(f"report document has unknown keys {sorted(extra)}")
    return True


def build_system(cfg: ExperimentConfig):
    """(unperturbed reference, experiment system) for a config."""
    sys0 = make_model(cfg.kappa, cfg.strength)
    sys = sys0
    if cfg.perturbation_name is not None and cfg.eps > 0:
        u = ScalarField(cfg.perturbation_name, tuple(cfg.perturbation_coeffs))
        sys = conformal_perturb(sys, u, cfg.eps, normalize=cfg.normalize,
                                rel_tol=cfg.tol_quad)
    if cfg.eta_name is not None and cfg.eps > 0:
        eta = OneForm(cfg.eta_name, tuple(cfg.eta_coeffs))
        sys = with_sigma_perturbation(sys, eta, eps=cfg.eps)
    return sys0, sys


def _verdict(ok):
    return "PASS" if ok else "FAIL"


def _two_sided(l_min, l_max, reference, tol):
    """The sandwich l_min <= pi a^2(1) <= l_max, within tol on each side."""
    return l_min <= reference + tol and l_max >= reference - tol


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Full pipeline: geometry -> dynamics -> orbits -> functionals -> verdicts."""
    return run_experiment_full(cfg)[0]


def run_experiment_full(cfg: ExperimentConfig):
    """run_experiment plus the experiment system and the orbit list."""
    sys0, sys = build_system(cfg)
    ref = zollref.reference_length(cfg.kappa, cfg.strength)
    if cfg.grid_density <= 0:
        raise NoOrbitsFound(f"no closed orbits: the seed grid is empty "
                            f"(grid_density = {cfg.grid_density})")
    found = orbits.enumerate_orbits(sys, grid_density=cfg.grid_density,
                                    tol=cfg.tol_orbit, max_iter=cfg.max_iter)
    if found.seeds_attempted == 0:
        raise NoOrbitsFound("no closed orbits: the orbit-space tiling brackets no critical "
                            "point in the searched region")
    if not found:
        raise NoOrbitsFound(
            f"no closed orbits from {found.seeds_attempted} seeds; eps may exceed the "
            "perturbative regime")

    lmags = found.magnetic_lengths
    l_min, l_max = min(lmags), max(lmags)
    vol_g0 = sys.surface.area()
    vol_g = vol_g0 if sys.volume_normalized or sys.is_unperturbed() else \
        riemannian_volume(sys, rel_tol=cfg.tol_quad)

    p_lo = zollref.zoll_polynomial_kahler(cfg.kappa, cfg.strength, cfg.n,
                                          vol_g0, l_min - ref)
    p_hi = zollref.zoll_polynomial_kahler(cfg.kappa, cfg.strength, cfg.n,
                                          vol_g0, l_max - ref)

    zoll_flag = max(abs(lm - ref) for lm in lmags) < cfg.equality_tol
    reduced_ok = l_min <= ref + cfg.ineq_tol
    two_sided_ok = _two_sided(l_min, l_max, ref, cfg.ineq_tol)

    coeff = zollref.full_coefficient(cfg.kappa, cfg.strength, cfg.n, vol_g0)
    lhs = (l_min / ref) ** (2 * cfg.n)
    rhs_affine = 1.0 + coeff * (vol_g - vol_g0)
    rhs_ratio = None
    if cfg.kappa != 0:
        rhs_ratio = coeff * vol_g / vol_g0
    full_ok = lhs <= rhs_affine + cfg.ineq_tol

    report = ExperimentReport(
        config=asdict(cfg),
        orbit_count=len(found),
        periods=[orb.period for orb in found],
        magnetic_lengths=lmags,
        residuals=[orb.residual for orb in found],
        seed_ids=[orb.seed_id for orb in found],
        l_min=l_min,
        l_max=l_max,
        reference=ref,
        slack_lower=ref - l_min,
        slack_upper=l_max - ref,
        vol_g=vol_g,
        vol_g0=vol_g0,
        p_at_lmin=p_lo,
        p_at_lmax=p_hi,
        zoll_flag=zoll_flag,
        verdict_reduced=_verdict(reduced_ok),
        verdict_two_sided=_verdict(two_sided_ok),
        verdict_full=_verdict(full_ok),
        full_lhs=lhs,
        full_rhs_affine=rhs_affine,
        full_rhs_ratio=rhs_ratio,
        seeds_attempted=found.seeds_attempted,
    )
    return report, sys, found


def check_two_sided(report: ExperimentReport, tol=None):
    """Verdict for the two-sided sandwich on a volume-normalized run.

    Asserts P(l_min - pi a^2(1)) <= 0 <= P(l_max - pi a^2(1)) within
    tolerance, checked in l-units (equivalent by local monotonicity of P).
    """
    if not report.config.get("normalize", False) and report.config.get("eps", 0) > 0:
        raise ValidationError("two-sided check needs a volume-normalized experiment")
    tol = report.config["ineq_tol"] if tol is None else tol
    return _verdict(_two_sided(report.l_min, report.l_max, report.reference, tol))


def sweep(cfg_template: ExperimentConfig, eps_list):
    """Independent runs per eps; per-run errors are collected, not fatal."""
    from dataclasses import replace
    reports = []
    for eps in eps_list:
        cfg = replace(cfg_template, eps=float(eps))
        try:
            reports.append(run_experiment(cfg))
        except MagsysError as exc:
            reports.append(_error_report(cfg, f"{type(exc).__name__}: {exc}"))
    return reports


def _error_report(cfg, message):
    return ExperimentReport(config=asdict(cfg),
                            reference=zollref.reference_length(cfg.kappa, cfg.strength),
                            error=message)


# the columns of summary.csv: eps from the config, the rest report fields
SUMMARY_COLUMNS = ("eps", "orbit_count", "l_min", "l_max", "slack_lower", "slack_upper",
                   "vol_g", "zoll_flag", "verdict_reduced", "verdict_two_sided",
                   "verdict_full", "error")


def sweep_table(reports):
    """One summary row per run, keyed by SUMMARY_COLUMNS: eps, l_min, l_max,
    slacks, vol_g, verdicts; a run without error has error ""."""
    return [{"eps": rep.config.get("eps", 0.0),
             **{col: getattr(rep, col) for col in SUMMARY_COLUMNS[1:]},
             "error": rep.error or ""} for rep in reports]
