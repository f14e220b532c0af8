"""Mean-field-game solver for multi-lane traffic with lane-switching control.

Library layout:

  model      flux / cost / terminal model functions
  grid       uniform grids, cell projection, P1 interpolation
  transport  semi-Lagrangian forward solver with lane-exchange sources
  hjb        backward QVI solver and feedback-policy extraction
  mfg        outer policy iteration for the coupled system
  baseline   uncontrolled multi-lane reference solver
  scenario   scenario files, validation, presets
  cli        run orchestration and file output
"""

from .baseline import BaselineParams, lwr_velocity, uncontrolled_solve
from .grid import SpatialGrid, TimeGrid, build_uniform, project_initial
from .hjb import (
    BackwardResult,
    ControlSet,
    hamiltonian_step,
    jump_operator,
    qvi_backward_step,
    solve_backward,
    terminal_slice,
)
from .mfg import MfgSolution, SolverOptions, initialize_policies, residuals, solve
from .model import (
    CostParams,
    FluxParams,
    TargetSet,
    critical_density,
    flux_eval,
    max_flux,
    running_cost,
    switching_cost,
    terminal_value,
)
from .scenario import Scenario, ScenarioError, parse_scenario, preset, write_scenario
from .transport import (
    forward_step,
    g_operator,
    mfg_source,
    shvetsov_source,
    total_mass,
)

__version__ = "0.1.0"
