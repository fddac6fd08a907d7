"""magsys-lab: magnetic geodesic flows on constant-curvature model surfaces.

A numerical laboratory for closed magnetic geodesics of perturbed Zoll
systems: flow integration, Poincare-section orbit search, magnetic-length
and flux functionals, Zoll reference constants and polynomials, the
odd-symplectic volume identity, and systolic-inequality experiments.
"""

from .errors import (CapNotFound, DivergedFromFamily, IoError, MagsysError,
                     NoConvergence, NoOrbitsFound, NoReturn, ParseError,
                     QuadratureFailure, StepFailure, TangencyError,
                     ValidationError, ZollRegimeViolation)
from .fields import OneForm, ScalarField, one_form_names, scalar_field_names
from .geometry import (MagneticSystem, TangentState, conformal_perturb, g_dot,
                       g_norm, make_model, make_surface, magnetic_density,
                       riemannian_volume, state_distance, tangent_state,
                       with_sigma_perturbation)
from .dynamics import (Trajectory, flow, geodesic_curvature_series,
                       latitude_seed, measure_geodesic_curvature,
                       reference_period, trajectory_to_csv)
from .orbits import Orbit, enumerate_orbits, find_closed_orbit, return_map
from .functionals import (ActionValue, closed_form_flux, flux_through_cap,
                          length, magnetic_action, magnetic_length)
from .zollref import (CohomologyData, ZollReference, a_of_r, a1_squared,
                      identity_constant, inequality_constant_C, k_tilde,
                      kahler_bundle_pairings, make_reference, reference_length,
                      zoll_polynomial_generic, zoll_polynomial_kahler)
from .volume import (VolumeReport, vol_closed_form, vol_quadrature_oracle,
                     volume_report)
from .syslab import (ExperimentConfig, ExperimentReport, check_two_sided,
                     run_experiment, run_experiment_full, sweep, sweep_table)

__version__ = "0.1.0"
