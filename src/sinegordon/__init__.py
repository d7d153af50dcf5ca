"""Structure-preserving finite-difference solvers for the sine-Gordon equation."""

__version__ = "0.1.0"

from .grid import Boundary, Grid, make_grid, make_grid_1d
from .operators import (BoundaryValues, coupling, coupling_prime, coupling_second,
                        delta_x, delta_y, extrapolate_half_step, h1_norm, laplacian,
                        time_average)
from .linear_solver import (NonConvergenceError, NumericalError, SolveReport,
                            SystemOperator, pcg_solve)
from .problems import (PROBLEMS, DirichletBoundary, Problem, circular_ring,
                       double_pole_1d, elliptical_breather, four_ring_collision,
                       get_problem, line_kink_2d, mirror_field, two_ring_collision)
from .schemes import (SCHEMES, RunResult, SchemeState, TimeGrid, ep_fds_step,
                      init_state, li_leps_first_step, li_leps_step, run)
from .diagnostics import (EnergyRecord, EnergyRecorder, ErrorReport,
                          convergence_orders, error_vs_exact,
                          global_energy_modified, global_energy_original,
                          local_energy_density, local_law_residual,
                          original_law_residual)

__all__ = [
    "Boundary", "Grid", "make_grid", "make_grid_1d",
    "BoundaryValues", "coupling", "coupling_prime", "coupling_second",
    "delta_x", "delta_y", "extrapolate_half_step", "h1_norm", "laplacian",
    "time_average",
    "NonConvergenceError", "NumericalError", "SolveReport", "SystemOperator",
    "pcg_solve",
    "PROBLEMS", "DirichletBoundary", "Problem", "circular_ring",
    "double_pole_1d", "elliptical_breather", "four_ring_collision",
    "get_problem", "line_kink_2d", "mirror_field", "two_ring_collision",
    "SCHEMES", "RunResult", "SchemeState", "TimeGrid", "ep_fds_step",
    "init_state", "li_leps_first_step", "li_leps_step", "run",
    "EnergyRecord", "EnergyRecorder", "ErrorReport", "convergence_orders",
    "error_vs_exact", "global_energy_modified", "global_energy_original",
    "local_energy_density", "local_law_residual", "original_law_residual",
    "__version__",
]
