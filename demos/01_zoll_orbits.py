"""Closed orbits of the unperturbed magnetic models.

Integrates one closed magnetic geodesic on each constant-curvature model
(sphere, flat torus, hyperbolic chart) and compares the measured period,
capping-disk flux, and magnetic length against the closed forms

    period = 2 pi / sqrt(s^2 + kappa)
    flux   = 2 pi s / (sqrt(s^2+kappa) (sqrt(s^2+kappa) + s))
    l_mag  = pi a^2(1) = 2 pi / (sqrt(s^2+kappa) + s).

Also writes one trajectory CSV you can plot with any tool.
"""

from magsys_lab import (closed_form_flux, find_closed_orbit, flow,
                        flux_through_cap, latitude_seed, length, make_model,
                        magnetic_length, reference_length, reference_period,
                        trajectory_to_csv)

MODELS = [("sphere", 1.0, 1.0), ("flat torus", 0.0, 1.0),
          ("hyperbolic", -1.0, 2.0)]

for name, kappa, s in MODELS:
    sys = make_model(kappa, s)
    orb = find_closed_orbit(sys, latitude_seed(sys), tol=1e-10)
    flux = flux_through_cap(sys, orb)
    lmag = magnetic_length(sys, orb)
    print(f"--- {name} (kappa={kappa:+g}, s={s:g})")
    print(f"    period     {orb.period:.9f}   closed form {reference_period(sys):.9f}")
    print(f"    length     {length(sys, orb):.9f}")
    print(f"    flux       {flux:.9f}   closed form "
          f"{closed_form_flux(kappa, s):.9f}")
    print(f"    l_mag      {lmag:.9f}   pi a^2(1)   "
          f"{reference_length(kappa, s):.9f}")
    print(f"    residual   {orb.residual:.2e}")

# a full trajectory with the measured geodesic curvature column
sys = make_model(1.0, 1.0)
traj = flow(sys, latitude_seed(sys), 2 * reference_period(sys))
trajectory_to_csv(sys, traj, "zoll_sphere_trajectory.csv")
print("\nwrote zoll_sphere_trajectory.csv "
      f"({len(traj.times)} samples, speed drift {traj.speed_drift:.1e}); "
      "the geodesic_curvature column should sit at s = 1")
