"""Structure-preserving finite-difference solvers for the sine-Gordon equation."""

__version__ = "0.1.0"

from .grid import Boundary, make_grid
from .operators import coupling, delta_x, laplacian
from .linear_solver import NonConvergenceError, NumericalError, SystemOperator, pcg_solve
from .problems import get_problem
from .schemes import (SchemeState, TimeGrid, ep_fds_step, init_state, li_leps_first_step,
                      li_leps_step, run)
from .diagnostics import (convergence_orders, error_vs_exact, global_energy_modified,
                          global_energy_original, local_law_residual, original_law_residual)

__all__ = [
    "Boundary", "make_grid",
    "coupling", "delta_x", "laplacian",
    "NonConvergenceError", "NumericalError", "SystemOperator", "pcg_solve",
    "get_problem",
    "SchemeState", "TimeGrid", "ep_fds_step", "init_state", "li_leps_first_step",
    "li_leps_step", "run",
    "convergence_orders", "error_vs_exact", "global_energy_modified",
    "global_energy_original", "local_law_residual", "original_law_residual",
    "__version__",
]
