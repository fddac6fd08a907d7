"""The volume identity: closed form vs direct Monte Carlo.

For conformal perturbations of a model surface the odd-symplectic volume
functional collapses to pi * (vol_g - vol_g0).  The oracle below does not
reduce to vol_g: it Monte-Carlo integrates the fiber integral of the
defining 3-form over the base (stratified cells, with the r- and fiber
integrals taken exactly), so the two numbers agree only if the identity's
+pi constant is right.

Exact magnetic perturbations sigma = sigma0 + eps d(eta) are invisible to
the functional, because d(eta)'s term integrates to zero over each fiber.
The oracle takes that fiber integral exactly, so the last block shows the
estimate of a pure eta perturbation is exactly zero; it illustrates the
blindness, it does not test it.
"""

from magsys_lab import (conformal_perturb, make_model, vol_closed_form,
                        vol_quadrature_oracle, with_sigma_perturbation)

sys0 = make_model(0.0, 1.0)

print("flat torus, u = cos x, eps = 0.1, unnormalized:")
pert = conformal_perturb(sys0, "torus_cos_x", 0.1, normalize=False)
cf = vol_closed_form(sys0, pert)
est, se = vol_quadrature_oracle(sys0, pert, samples=1_000_000, rng_seed=1)
print(f"    closed form  {cf:.6f}")
print(f"    oracle       {est:.6f} +- {se:.2e}  "
      f"({abs(est - cf) / se:.2f} sigma, {abs(est - cf) / cf:.2%} relative)")

print("volume-normalized variant (identity forces exactly zero):")
norm = conformal_perturb(sys0, "torus_cos_x", 0.1, normalize=True)
est0, se0 = vol_quadrature_oracle(sys0, norm, samples=1_000_000, rng_seed=1)
print(f"    closed form  {vol_closed_form(sys0, norm):.6f}")
print(f"    oracle       {est0:+.2e} +- {se0:.2e}")

print("pure exact magnetic perturbation (u = 0, eta != 0):")
eta_only = with_sigma_perturbation(sys0, "torus_eta_sin_x", eps=0.1)
est_eta, se_eta = vol_quadrature_oracle(sys0, eta_only, samples=200_000,
                                        rng_seed=1)
print(f"    oracle       {est_eta:+.2e} +- {se_eta:.2e}  "
      "(the functional is blind to d(eta))")
