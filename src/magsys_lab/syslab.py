"""Systolic experiments: build, enumerate, measure, and judge.

``run_experiment`` drives the full pipeline for one configuration: build the
(possibly perturbed) system, enumerate closed orbits from a deterministic
seed grid, evaluate magnetic lengths, and populate inequality verdicts with
slack values.

Verdict conventions.  The reduced inequality (``verdict_reduced``) is
l_min <= pi a^2(1) + tol.  The two-sided sandwich (``verdict_two_sided``)
is l_min <= pi a^2(1) <= l_max within tol, recorded together with the Zoll
polynomial values P(l_min - pi a^2(1)) and P(l_max - pi a^2(1)); near zero P
is monotone (increasing when its leading constant is positive), so the
P-form and the l-form of the sandwich are equivalent.  The full-constant
inequality (``verdict_full``) is evaluated in the derivation-consistent
affine form

    (l_min / (pi a^2(1)))^{2n} <= 1 + C * (vol_g - vol_g0),

whose kappa != 0 coefficient is ``zollref.inequality_constant_C``; the
volume-ratio reading C * vol_g/vol_g0 is also recorded as data (it cannot
hold at the Zoll point for these models since C < 1 there).

A FAIL verdict is data, not an error: reports carry the seed grid and the
short-loop window so a failure can be attributed to census incompleteness.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from . import orbits, zollref
from .config import ExperimentConfig
from .errors import MagsysError, NoOrbitsFound, ValidationError
from .fields import OneForm, ScalarField
from .geometry import (conformal_perturb, make_model, riemannian_volume,
                       with_sigma_perturbation)
from .volume import identity_constant

SHORT_LOOP_WINDOW = orbits.SHORT_LOOP_PERIOD_WINDOW


@dataclass
class ExperimentReport:
    config: dict
    orbit_count: int
    periods: list
    magnetic_lengths: list
    residuals: list
    seed_ids: list
    l_min: float
    l_max: float
    reference: float
    slack_lower: float
    slack_upper: float
    vol_g: float
    vol_g0: float
    p_at_lmin: float
    p_at_lmax: float
    zoll_flag: bool
    verdict_reduced: str
    verdict_two_sided: str
    verdict_full: str
    full_lhs: float
    full_rhs_affine: float
    full_rhs_ratio: float | None
    seeds_attempted: int
    short_loop_window: float = SHORT_LOOP_WINDOW
    error: str | None = None

    def to_dict(self):
        return asdict(self)

    def all_verdicts(self):
        return [self.verdict_reduced, self.verdict_two_sided, self.verdict_full]


def build_system(cfg: ExperimentConfig):
    """(unperturbed reference, experiment system) for a config."""
    sys0 = make_model(cfg.kappa, cfg.strength)
    sys = sys0
    if cfg.perturbation_name is not None and cfg.eps > 0:
        u = ScalarField(cfg.perturbation_name, tuple(cfg.perturbation_coeffs))
        sys = conformal_perturb(sys, u, cfg.eps, normalize=cfg.normalize,
                                rel_tol=min(cfg.tol_quad, 1e-10))
    if cfg.eta_name is not None and cfg.eps > 0:
        eta = OneForm(cfg.eta_name, tuple(cfg.eta_coeffs))
        sys = with_sigma_perturbation(sys, eta, eps=cfg.eps)
    return sys0, sys


def _verdict(ok):
    return "PASS" if ok else "FAIL"


def _two_sided(l_min, l_max, reference, tol):
    """The sandwich l_min <= pi a^2(1) <= l_max, within tol on each side."""
    return l_min <= reference + tol and l_max >= reference - tol


def _full_coefficient(kappa, s, n, vol_g0):
    """Coefficient C = 2 pi^{2n} / ((n-1)! K) of (vol_g - vol_g0) in the affine
    full inequality, with K the leading constant of the Kahler Zoll polynomial:
    ``zollref.inequality_constant_C`` at kappa != 0."""
    if kappa != 0:
        return zollref.inequality_constant_C(kappa, s, n, vol_g0)
    return identity_constant(n) / zollref.kahler_leading_constant(kappa, s, n)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Full pipeline: geometry -> dynamics -> orbits -> functionals -> verdicts."""
    return run_experiment_full(cfg)[0]


def run_experiment_full(cfg: ExperimentConfig):
    """run_experiment plus the experiment system and the orbit list."""
    sys0, sys = build_system(cfg)
    ref = zollref.reference_length(cfg.kappa, cfg.strength)
    found = orbits.enumerate_orbits(sys, grid_density=cfg.grid_density,
                                    tol=cfg.tol_orbit, max_iter=cfg.max_iter,
                                    workers=cfg.workers, rng_seed=cfg.rng_seed)
    if found.seeds_attempted == 0:
        raise NoOrbitsFound(f"no closed orbits: the seed grid is empty "
                            f"(grid_density = {cfg.grid_density})")
    if not found:
        raise NoOrbitsFound(
            f"no closed orbits from {found.seeds_attempted} seeds; eps may exceed the "
            "perturbative regime")

    lmags = found.magnetic_lengths
    l_min, l_max = min(lmags), max(lmags)
    vol_g0 = sys.surface.area()
    vol_g = vol_g0 if sys.is_unperturbed() else \
        riemannian_volume(sys, rel_tol=cfg.tol_quad)

    p_lo = zollref.zoll_polynomial_kahler(cfg.kappa, cfg.strength, cfg.n,
                                          vol_g0, l_min - ref)
    p_hi = zollref.zoll_polynomial_kahler(cfg.kappa, cfg.strength, cfg.n,
                                          vol_g0, l_max - ref)

    zoll_flag = max(abs(lm - ref) for lm in lmags) < cfg.equality_tol
    reduced_ok = l_min <= ref + cfg.ineq_tol
    two_sided_ok = _two_sided(l_min, l_max, ref, cfg.ineq_tol)

    coeff = _full_coefficient(cfg.kappa, cfg.strength, cfg.n, vol_g0)
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
    nan = float("nan")
    return ExperimentReport(
        config=asdict(cfg), orbit_count=0, periods=[], magnetic_lengths=[],
        residuals=[], seed_ids=[], l_min=nan, l_max=nan,
        reference=zollref.reference_length(cfg.kappa, cfg.strength),
        slack_lower=nan, slack_upper=nan, vol_g=nan, vol_g0=nan,
        p_at_lmin=nan, p_at_lmax=nan, zoll_flag=False,
        verdict_reduced="ERROR", verdict_two_sided="ERROR", verdict_full="ERROR",
        full_lhs=nan, full_rhs_affine=nan, full_rhs_ratio=None,
        seeds_attempted=0, error=message)


def sweep_table(reports):
    """One summary row per run: eps, l_min, l_max, slacks, vol_g, verdicts."""
    rows = []
    for rep in reports:
        rows.append({
            "eps": rep.config.get("eps", 0.0),
            "orbit_count": rep.orbit_count,
            "l_min": rep.l_min,
            "l_max": rep.l_max,
            "slack_lower": rep.slack_lower,
            "slack_upper": rep.slack_upper,
            "vol_g": rep.vol_g,
            "zoll_flag": rep.zoll_flag,
            "verdict_reduced": rep.verdict_reduced,
            "verdict_two_sided": rep.verdict_two_sided,
            "verdict_full": rep.verdict_full,
            "error": rep.error or "",
        })
    return rows
