"""delaytree: preferential attachment from delayed snapshots, with oracles.

Grow random recursive trees where each arriving vertex attaches inside a
*stale* snapshot of the tree (a random lookback of order n**beta), and
compare what you measure against exact limit objects: the Malthusian
parameter, the limiting degree law, the fringe-subtree distribution, leaf
CLT constants, and the root-degree growth scales for light and heavy
delay tails.
"""

from .kernels import (
    AffineKernel,
    AttachmentKernel,
    ConstantDelay,
    DelayLaw,
    GrowthConfig,
    InversePowerDelay,
    ParetoDelay,
    QuantileTableDelay,
    TabulatedKernel,
    Uniform01Delay,
    UniformKernel,
    ZeroDelay,
)
from .growth import TreeTrace, deg_at, grow, trace_from_parents
from .theory import (
    FringeTable,
    MalthusianResult,
    clt_constants,
    degree_law,
    extended_fringe_law,
    fringe_bruteforce,
    fringe_recursion,
    rho_hat,
    root_degree_constants,
    solve_malthusian,
)
from .estimators import (
    DegreeHist,
    FringeCensus,
    degree_hist,
    delay_condition_scan,
    extended_fringe_census,
    fringe_census,
    root_trajectory,
)
from .harness import ExperimentPlan, RunSummary, run, tv_distance

__version__ = "0.1.0"

__all__ = [
    "AffineKernel",
    "AttachmentKernel",
    "ConstantDelay",
    "DegreeHist",
    "DelayLaw",
    "ExperimentPlan",
    "FringeCensus",
    "FringeTable",
    "GrowthConfig",
    "InversePowerDelay",
    "MalthusianResult",
    "ParetoDelay",
    "QuantileTableDelay",
    "RunSummary",
    "TabulatedKernel",
    "TreeTrace",
    "Uniform01Delay",
    "UniformKernel",
    "ZeroDelay",
    "clt_constants",
    "deg_at",
    "degree_hist",
    "degree_law",
    "delay_condition_scan",
    "extended_fringe_census",
    "extended_fringe_law",
    "fringe_bruteforce",
    "fringe_census",
    "fringe_recursion",
    "grow",
    "rho_hat",
    "root_degree_constants",
    "root_trajectory",
    "run",
    "solve_malthusian",
    "trace_from_parents",
    "tv_distance",
    "__version__",
]
