"""Penalized forward selection with FDR-based penalties and a Monte
Carlo laboratory for random-oracle relative-loss comparisons."""

from .dataio import ExpansionSpec, diabetes_path, expand, ingest, load_diabetes
from .penalties import (
    FAMILIES,
    PenaltySpec,
    PenaltyTable,
    penalty_factor,
    penalty_table,
    step_alpha,
)
from .quantiles import RandomSource, inverse_normal_cdf
from .regress import (
    Dataset,
    ForwardPath,
    estimate_sigma2,
    forward_path,
    least_squares,
    standardize,
)
from .selector import (
    RULES,
    SelectionResult,
    msfdr_iterative,
    select,
    stop,
)
from .simlab import (
    ConfigOutcome,
    SimConfig,
    gen_beta,
    gen_design,
    minimax_summary,
    random_oracle,
    run_config,
    solve_c_for_r2,
)

__version__ = "0.1.0"
