"""Pseudo-spectral Cahn-Hilliard and Burgers coupled solver with coarsening analysis.

The package simulates phase separation in one periodic dimension, with and
without an advecting velocity field, and quantifies coarsening three ways:
an energy-to-period measure built from exact periodic waves, Floquet
spectra of those waves, and analytic period predictors with a fitting
front end.  The ``bchsim`` command line drives runs, ensembles, tables,
and fits; the modules below are the library surface.
"""

from .config import SolverConfig, parse_config, parse_config_file
from .energy import EnergyPeriodTable, energy_of_period, free_energy, period_from_energy
from .evans import EigTable, build_eig_table, leading_eigenvalue, monodromy
from .grid import Field, Grid
from .predictors import fit_pfit, handshake, p_fit
from .series import TimeSeries
from .solver import RunResult, Stepper, run
from .waves import Params, periodic_wave

__version__ = "0.1.0"

__all__ = [
    "SolverConfig",
    "parse_config",
    "parse_config_file",
    "EnergyPeriodTable",
    "energy_of_period",
    "free_energy",
    "period_from_energy",
    "EigTable",
    "build_eig_table",
    "leading_eigenvalue",
    "monodromy",
    "Field",
    "Grid",
    "fit_pfit",
    "handshake",
    "p_fit",
    "TimeSeries",
    "RunResult",
    "Stepper",
    "run",
    "Params",
    "periodic_wave",
    "__version__",
]
