"""Closed-form Zoll reference constants and the Zoll polynomial.

The scale function of the Zoll family is

    a(r)^2 = 2 r^2 / (sqrt(s^2 + kappa r^2) + s),

an algebraically stable form of (2/kappa)(sqrt(s^2 + kappa r^2) - s) that is
continuous across kappa = 0, where it reduces to r^2/s.  The reference
magnetic length of every closed orbit of the unperturbed system is
pi a(1)^2 = 2 pi / (sqrt(s^2 + kappa) + s).

The Zoll polynomial comes in two forms: a generic one driven by cohomology
pairings <c0^{m-k} e0^k, [M]> with m half the base dimension, evaluated by
exact binomial integration, and a Kahler closed form for the
constant-curvature models.  ``kahler_bundle_pairings`` derives the pairing
list the closed form presupposes from the circle-bundle relation
c0 = pi a^2(1) e0 - s [sigma], so the two evaluation routes can be
cross-checked digit-for-digit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError, ZollRegimeViolation


def check_zoll_regime(kappa, strength):
    """The one check of the Zoll regime: kappa and s finite, s^2 + kappa > 0
    and sqrt(s^2+kappa) + s > 0."""
    if not (math.isfinite(kappa) and math.isfinite(strength)):
        raise ZollRegimeViolation(
            f"kappa and strength must be finite (kappa = {kappa:g}, strength = {strength:g})")
    disc = strength**2 + kappa
    if not (disc > 0 and math.sqrt(disc) + strength > 0):
        raise ZollRegimeViolation(
            "Zoll regime violated: need s^2+kappa > 0 and sqrt(s^2+kappa) + s > 0 "
            f"(kappa = {kappa:g}, strength = {strength:g})")


def a_of_r(kappa, s, r):
    """The monotone scale function a(r) of the Zoll family."""
    disc = s * s + kappa * r * r
    if not disc > 0 or not math.sqrt(disc) + s > 0:
        raise ZollRegimeViolation(
            f"a(r) undefined at kappa={kappa:g}, s={s:g}, r={r:g}")
    return math.sqrt(2.0 * r * r / (math.sqrt(disc) + s))


def a1_squared(kappa, s):
    """a(1)^2 = 2/(sqrt(s^2+kappa) + s); equals 1/s at kappa = 0."""
    check_zoll_regime(kappa, s)
    return 2.0 / (math.sqrt(s * s + kappa) + s)


def reference_length(kappa, s):
    """Reference magnetic length pi a(1)^2 of the Zoll orbits."""
    return math.pi * a1_squared(kappa, s)


@dataclass(frozen=True)
class ZollReference:
    """Curvature/strength-derived reference constants."""

    kappa: float
    strength: float
    n: int
    a1_squared: float
    reference_magnetic_length: float
    vol_g0: float


def _model_volume(kappa):
    """The g0-area vol_g0 of the model surface of curvature kappa (on the
    hyperbolic chart, of its domain)."""
    from .geometry import make_surface
    return make_surface(kappa).area()


def make_reference(kappa, strength, n=1, vol_g0=None):
    if n < 1:
        raise ValidationError("complex dimension n must be >= 1")
    a2 = a1_squared(kappa, strength)
    if vol_g0 is None:
        vol_g0 = _model_volume(kappa)
    return ZollReference(kappa=float(kappa), strength=float(strength), n=int(n),
                         a1_squared=a2, reference_magnetic_length=math.pi * a2,
                         vol_g0=float(vol_g0))


# --- Zoll polynomial -----------------------------------------------------------

@dataclass(frozen=True)
class CohomologyData:
    """Pairings <c0^{m-k} e0^k, [M]> for k = 0..m with m = dim(M)/2."""

    pairings: tuple
    dim_M: int

    def __post_init__(self):
        if self.dim_M <= 0 or self.dim_M % 2 != 0:
            raise ValidationError("dim_M must be a positive even integer")
        m = self.dim_M // 2
        if len(self.pairings) != m + 1:
            raise ValidationError(
                f"need {m + 1} pairings for dim_M = {self.dim_M}, "
                f"got {len(self.pairings)}")
        if not self.pairings[0] > 0:
            raise ValidationError(
                "pairings[0] = <c0^m, [M]> must be positive "
                "(c0 is represented by a symplectic form)")
        object.__setattr__(self, "pairings", tuple(float(p) for p in self.pairings))


def zoll_polynomial_generic(coh: CohomologyData, A):
    """P(A) = int_0^A <(c0 + t e0)^m, [M]> dt by exact binomial integration."""
    m = coh.dim_M // 2
    terms = [math.comb(m, k) * coh.pairings[k] * A ** (k + 1) / (k + 1)
             for k in range(m + 1)]
    return math.fsum(terms)


def k_tilde(kappa, s0, n):
    """Leading Kahler constant of the kappa != 0 Zoll polynomial branch."""
    if kappa == 0:
        raise ValidationError("k_tilde is the kappa != 0 constant")
    a2 = a1_squared(kappa, s0)
    return (math.pi ** (2 * n + 1) / math.factorial(n) ** 2 * a2 ** (4 * n)
            * (kappa / 2.0) ** n * (a2 + s0) ** (n - 1)
            * (1.0 + 2.0 * (s0 + a2)))


def _bracket(a2, n, A):
    # (1 + A/(pi a^2))^{2n} - 1 evaluated stably near A = 0
    x = A / (math.pi * a2)
    if x <= -1.0:
        return (1.0 + x) ** (2 * n) - 1.0
    return math.expm1(2 * n * math.log1p(x))


def kahler_leading_constant(kappa, s0, n, vol_g0=None):
    """The leading constant K of the Kahler Zoll polynomial
    P(A) = K [(1 + A/(pi a^2(1)))^{2n} - 1]: K_tilde vol_g0 at kappa != 0
    (vol_g0 defaults to the model's), 2 pi^{2n+1} a^2(1)^{4n} / (2n)! at
    kappa = 0."""
    if kappa != 0:
        return k_tilde(kappa, s0, n) * (_model_volume(kappa) if vol_g0 is None else vol_g0)
    return (2.0 * math.pi ** (2 * n + 1) / math.factorial(2 * n)
            * a1_squared(kappa, s0) ** (4 * n))


def zoll_polynomial_kahler(kappa, s0, n, vol_g0, A):
    """Closed-form Zoll polynomial of the constant-curvature magnetic models."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    a2 = a1_squared(kappa, s0)
    return kahler_leading_constant(kappa, s0, n, vol_g0) * _bracket(a2, n, A)


def kahler_bundle_pairings(kappa, s0, n=1, vol_g0=None):
    """Cohomology pairings implied by the model circle bundles.

    The reduced bundle of the Zoll flow satisfies c0 = pi a^2(1) e0 - s [sigma]
    on its base; with the closed-form normalization this pins every pairing to

        <c0^{m-k} e0^k, [M]> = 2 n Keff / (pi a^2(1))^{k+1},  m = 2n - 1,

    with Keff the leading constant of the matching closed-form branch
    (``kahler_leading_constant``).  The generic polynomial on this data
    reproduces the closed form exactly.
    """
    a2 = a1_squared(kappa, s0)
    keff = kahler_leading_constant(kappa, s0, n, vol_g0)
    m = 2 * n - 1
    pair = tuple(2.0 * n * keff / (math.pi * a2) ** (k + 1) for k in range(m + 1))
    return CohomologyData(pairings=pair, dim_M=2 * m)


def inequality_constant_C(kappa, s, n, vol_g0):
    """The constant C(kappa, s, n) of the full systolic inequality.

    Implemented as [bracket]^{-1} * 2/(vol_g0 (n-1)!) with the bracket
    pi/(n!)^2 [a^2(1)]^{4n} (kappa/2)^n (a^2(1)+s)^{n-1} (1 + 2(s + a^2(1))).
    Equivalently 2 pi^{2n} / (K_tilde vol_g0 (n-1)!), the coefficient of the
    volume defect in the derivation-consistent affine form
    (l_min/(pi a^2(1)))^{2n} <= 1 + C (vol_g - vol_g0).
    """
    if kappa == 0:
        raise ZollRegimeViolation("C(kappa, s, n) is defined for kappa != 0")
    a2 = a1_squared(kappa, s)
    bracket = (math.pi / math.factorial(n) ** 2 * a2 ** (4 * n)
               * (kappa / 2.0) ** n * (a2 + s) ** (n - 1)
               * (1.0 + 2.0 * (s + a2)))
    return (1.0 / bracket) * 2.0 / (vol_g0 * math.factorial(n - 1))
