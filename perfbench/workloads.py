"""The benchmark's workloads: one fixed config each, the command it runs, and
the values its results are gated on.

A workload's config does not change with the workload seed; the seed reaches
the program only as ``--seed`` (the grid jitter of the sphere censuses and the
Monte Carlo stream of the volume oracle; the torus grid ignores it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def zoll_magnetic_length(kappa, strength):
    """pi a^2(1) = 2 pi / (sqrt(s^2 + kappa) + s), the magnetic length shared
    by every orbit of the unperturbed system."""
    return 2.0 * math.pi / (math.sqrt(strength**2 + kappa) + strength)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # magsys-lab subcommand: "systole" or "volume"
    config: str                  # config file text
    tol_orbit: float = 1e-9
    kappa: float = 1.0
    strength: float = 1.0
    # census workloads: "zoll" (every length equals pi a^2(1)) or "perturbed"
    # (l_min < pi a^2(1) < l_max, with l_min and l_max as recorded below);
    # the volume workload records its closed form and sample count
    census_kind: str | None = None
    recorded: dict = field(default_factory=dict)

    @property
    def is_census(self):
        return self.command == "systole"


WORKLOADS = {w.name: w for w in (
    Workload(
        name="census-zoll-sphere",
        command="systole",
        census_kind="zoll",
        config="""\
[model]
kappa = 1.0
strength = 1.0

[search]
grid_density = 3
tol_orbit = 1e-9
workers = 1
"""),
    Workload(
        name="census-perturbed-sphere",
        command="systole",
        census_kind="perturbed",
        # l_min, l_max as report.json prints them (12 significant digits)
        recorded={"l_min": 2.44467667348, "l_max": 2.7586394964},
        config="""\
[model]
kappa = 1.0
strength = 1.0

[perturbation]
field = sphere_harmonic_z
eps = 0.05
normalize = true

[search]
grid_density = 3
tol_orbit = 1e-9
workers = 1
"""),
    Workload(
        name="census-perturbed-torus",
        command="systole",
        kappa=0.0,
        census_kind="perturbed",
        recorded={"l_min": 2.89891334955, "l_max": 3.3787699425},
        # grid density 3 gives a FAIL verdict on this system; 4 is needed
        config="""\
[model]
kappa = 0.0
strength = 1.0

[perturbation]
field = torus_cos_x
eps = 0.05
normalize = true

[search]
grid_density = 4
tol_orbit = 1e-9
workers = 1
"""),
    Workload(
        name="volume-oracle-sphere",
        command="volume",
        recorded={"closed_form": 0.0658302691894, "samples": 4000000},
        # not normalised, so the closed form pi (vol_g - vol_g0) is non-zero
        config="""\
[model]
kappa = 1.0
strength = 1.0

[perturbation]
field = sphere_harmonic_z
eps = 0.05
eta = sphere_eta_axial
normalize = false

[search]
samples = 4000000
workers = 1
"""),
)}
