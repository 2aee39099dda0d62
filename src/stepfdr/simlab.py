"""Monte Carlo laboratory: configuration grid, data generation,
theoretical MSPE, the random oracle, relative losses with ratio
standard errors, and minimax summaries.

Every source of randomness flows through per-(configuration,
replication) sub-streams of one campaign seed, so results do not
depend on scheduling order and any configuration can be re-run in
isolation bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .penalties import PenaltySpec, _large_q_warned
from .quantiles import RandomSource
from .regress import cross_products, forward_sweep
from .selector import choose_size, method_label, parse_method

__all__ = [
    "P_FRACTIONS",
    "SimConfig",
    "MethodOutcome",
    "ConfigOutcome",
    "gen_design",
    "gen_beta",
    "solve_c_for_r2",
    "random_oracle",
    "run_config",
    "loss_matrix",
    "worst_k_means",
    "minimax_summary",
    "q_tables",
]

# p_index 1..6 maps to these fractions of m (index 1 is sqrt(m)).
P_FRACTIONS = {2: 0.25, 3: 1.0 / 3.0, 4: 0.5, 5: 0.75, 6: 1.0}

DEFAULT_EFFECT_TARGET = 3.0  # smallest standardized true effect under c_scale "auto"


def p_from_index(p_index: int, m: int) -> int:
    if p_index == 1:
        p = round(math.sqrt(m))
    elif p_index in P_FRACTIONS:
        p = round(P_FRACTIONS[p_index] * m)
    else:
        raise ValueError(f"p_index must lie in 1..6, got {p_index}")
    return max(int(p), 1)


@dataclass(frozen=True)
class SimConfig:
    """One cell of the simulation grid."""

    m: int
    rho: float
    beta_type: int
    p_index: int
    replications: int = 1000
    seed: int = 0
    c_scale: object = "auto"  # positive float or "auto"
    effect_target: float = DEFAULT_EFFECT_TARGET

    def __post_init__(self):
        for name in ("m", "beta_type", "p_index", "replications", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.m < 2:
            raise ValueError("m must be at least 2")
        if not abs(self.rho) < 1.0:
            raise ValueError("|rho| must be below 1")
        if self.beta_type not in (1, 2, 3):
            raise ValueError("beta_type must be 1, 2 or 3")
        if self.replications < 1:
            raise ValueError("replications must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        p_from_index(self.p_index, self.m)  # validates
        if self.c_scale != "auto" and not (
            isinstance(self.c_scale, (int, float)) and not isinstance(self.c_scale, bool)
            and 0 < self.c_scale < math.inf
        ):
            raise ValueError(f"c_scale must be positive and finite or 'auto', got {self.c_scale!r}")
        if not math.isfinite(self.effect_target):
            raise ValueError(f"effect_target must be a finite number, got {self.effect_target}")

    @property
    def n(self) -> int:
        return 2 * self.m

    @property
    def p(self) -> int:
        return p_from_index(self.p_index, self.m)

    def key(self) -> str:
        return f"m{self.m}_rho{self.rho:+.2f}_b{self.beta_type}_p{self.p_index}"


@dataclass(frozen=True)
class MethodOutcome:
    label: str
    mean_mspe: float
    relative_loss: float
    se_relative_loss: float


@dataclass(frozen=True)
class ConfigOutcome:
    config: SimConfig
    oracle_mspe: float
    methods: Tuple[MethodOutcome, ...]
    #: replications where some method beat the oracle (must stay zero:
    #: every method picks a prefix of the array the oracle minimizes)
    dominance_violations: int = 0


_RHO_CODES = {-0.5: 0, 0.0: 1, 0.5: 2}


def _rho_code(rho: float) -> int:
    return _RHO_CODES.get(rho, int(abs(hash(round(rho, 6)))) % (2**31))


def gen_design(m: int, n: int, rho: float, source: RandomSource) -> np.ndarray:
    """n rows from N(0, Sigma) with Sigma_ij = rho^|i-j| via the AR(1) recursion."""
    if not abs(rho) < 1.0:
        raise ValueError("|rho| must be below 1")
    eps = source.generator().standard_normal((n, m))
    X = np.empty((n, m))
    X[:, 0] = eps[:, 0]
    scale = math.sqrt(1.0 - rho * rho)
    for j in range(1, m):
        X[:, j] = rho * X[:, j - 1] + scale * eps[:, j]
    return X


def solve_c_for_r2(X: np.ndarray, beta_unit: np.ndarray, target_r2: float, n: int) -> float:
    """Scale c with c^2 * u'X'Xu = n * R^2/(1-R^2)."""
    Xu = X @ beta_unit
    quad = float(Xu @ Xu)
    if quad <= 0.0:
        raise ValueError("degenerate quadratic form: X beta is identically zero")
    return math.sqrt((target_r2 / (1.0 - target_r2)) * n / quad)


def _auto_scale(X: np.ndarray, unit: np.ndarray, target: float) -> float:
    """c such that the smallest standardized true effect equals ``target``.

    Standard errors come from the true model (support columns plus an
    intercept) at the lab's noise level sigma = 1, matching how
    estimator precision is assessed.
    """
    support = np.flatnonzero(unit)
    A = np.column_stack([np.ones(X.shape[0]), X[:, support]])
    xtx_inv = np.linalg.inv(A.T @ A)
    se = np.sqrt(np.diag(xtx_inv)[1:])
    ratios = unit[support] / se
    return target / float(ratios.min())


def gen_beta(config: SimConfig, X: np.ndarray, source: RandomSource) -> np.ndarray:
    """True coefficient vector (length m, zeros beyond the support).

    Type 1 decays as 1/sqrt(i), type 2 as p/(m*i) so the smallest
    nonzero coefficient is c/m (uniform random shape when p = sqrt(m)),
    type 3 is constant at the level giving theoretical R^2 = 0.75.
    """
    m, p = config.m, config.p
    unit = np.zeros(m)
    idx = np.arange(1, p + 1, dtype=float)
    if config.beta_type == 1:
        unit[:p] = 1.0 / np.sqrt(idx)
    elif config.beta_type == 2:
        if config.p_index == 1:
            u = source.generator().uniform(1.0 / m, 1.0, size=p)
            unit[:p] = u
        else:
            unit[:p] = p / (m * idx)
    else:
        unit[:p] = 1.0

    if config.beta_type == 3:
        c = solve_c_for_r2(X, unit, 0.75, config.n)
    elif config.c_scale == "auto":
        c = _auto_scale(X, unit, config.effect_target)
    else:
        c = float(config.c_scale)
    return c * unit


def random_oracle(prefix_mspe: np.ndarray) -> tuple:
    """Best prefix of a path given its per-prefix theoretical MSPE.

    Returns ``(k, mspe)``; a 2-d array holds one path per row and gives
    one ``k`` and one MSPE per row.
    """
    prefix_mspe = np.asarray(prefix_mspe, dtype=float)
    k, best = prefix_mspe.argmin(axis=-1), prefix_mspe.min(axis=-1)
    if prefix_mspe.ndim == 1:
        return int(k), float(best)
    return k, best


def path_prefix_mspe(bias: np.ndarray, sigma2: float) -> np.ndarray:
    """Theoretical MSPE of each prefix: sigma2 per parameter (intercept included) plus bias."""
    ks = np.arange(np.shape(bias)[-1]) + 1
    return sigma2 * ks + bias


def run_config(
    config: SimConfig,
    methods: Sequence[Tuple[PenaltySpec, Optional[str]]],
) -> ConfigOutcome:
    """Run one configuration's replications and aggregate relative losses.

    One design matrix per (m, rho, seed) is held fixed across
    replications; each replication draws fresh standard normal noise
    from its own sub-stream, and every method knows sigma2 = 1.  All
    methods are evaluated on the same forward path as the random
    oracle, and relative loss is the ratio of mean MSPEs with a
    ratio-estimator standard error.
    """
    root = RandomSource(config.seed)
    cell = (config.m, _rho_code(config.rho), config.beta_type, config.p_index)
    X = gen_design(config.m, config.n, config.rho, root.substream(1, *cell[:2]))
    beta = gen_beta(config, X, root.substream(2, *cell))
    signal = X @ beta
    pool = cross_products(X, True, signal)
    m, reps = config.m, config.replications

    # One path per row, padded with +inf past its depth.
    rss = np.full((reps, m + 1), np.inf)
    bias = np.full((reps, m + 1), np.inf)
    for r in range(reps):
        y = signal + root.substream(3, *cell, r).generator().standard_normal(config.n)
        _, rss_r, bias_r = forward_sweep(pool, y, m)
        rss[r, :len(rss_r)] = rss_r
        bias[r, :len(bias_r)] = bias_r
    prefix = path_prefix_mspe(bias, 1.0)
    _, oracle_vals = random_oracle(prefix)

    outs = []
    violations = 0
    for spec, rule in methods:
        rule, label = method_label(spec, rule)
        _, k, _ = choose_size(rss, 1.0, spec, m, rule)
        yv = np.take_along_axis(prefix, k[:, None], axis=1)[:, 0]
        violations += int((yv < oracle_vals).sum())
        ratio = float(yv.mean()) / float(oracle_vals.mean())
        outs.append(MethodOutcome(label, float(yv.mean()), ratio,
                                  _ratio_se(yv, oracle_vals, ratio)))
    return ConfigOutcome(config=config, oracle_mspe=float(oracle_vals.mean()),
                         methods=tuple(outs), dominance_violations=violations)


def _ratio_se(yv: np.ndarray, x: np.ndarray, ratio: float) -> float:
    reps = len(x)
    if reps < 2:
        return float("nan")
    xbar = x.mean()
    sy2 = yv.var(ddof=1)
    sx2 = x.var(ddof=1)
    sxy = float(np.cov(yv, x, ddof=1)[0, 1])
    var = (sy2 + ratio * ratio * sx2 - 2.0 * ratio * sxy) / (reps * xbar * xbar)
    return math.sqrt(max(var, 0.0))


def loss_matrix(outcomes: Sequence[ConfigOutcome]) -> Tuple[list, np.ndarray]:
    """The labels of outcomes that all list the first outcome's labels, in
    order, and their relative losses as one C-ordered (methods x outcomes)
    array."""
    if not outcomes:
        raise ValueError("no configuration outcomes to summarize")
    labels = [mo.label for mo in outcomes[0].methods]
    losses = np.empty((len(labels), len(outcomes)))
    for j, o in enumerate(outcomes):
        other = [mo.label for mo in o.methods]
        if other != labels:
            raise ValueError(f"outcome {o.config.key()} holds methods {', '.join(other)}; "
                             f"outcome {outcomes[0].config.key()} holds {', '.join(labels)}")
        losses[:, j] = [mo.relative_loss for mo in o.methods]
    return labels, losses


def worst_k_means(losses: np.ndarray, worst_k: object = 1) -> list:
    """Each row's mean of its worst-k entries (``worst_k``: a positive integer,
    or "ALL" for the plain mean).  Each row is sorted once, largest first, by
    negating twice, which keeps positive strides; on a C-contiguous ``losses``
    its first k then sum in the order ``np.mean`` sums a sorted list of them."""
    if worst_k != "ALL" and int(worst_k) < 1:
        raise ValueError("worst-k must be positive or 'ALL'")
    worst = -np.sort(-losses, axis=1)
    if worst_k != "ALL":
        worst = worst[:, :int(worst_k)]
    return worst.mean(axis=1).tolist()


def minimax_summary(outcomes: Sequence[ConfigOutcome], worst_k: object = 1) -> Dict[str, float]:
    """Per-method mean of the worst-k relative losses over a set of outcomes:
    ``worst_k_means`` of their ``loss_matrix``, by label."""
    labels, losses = loss_matrix(outcomes)
    return dict(zip(labels, worst_k_means(losses, worst_k)))


def q_tables(worst: Dict[str, float]) -> Dict[str, Dict[float, float]]:
    """A worst-1 summary per q level for bh, tsfdr and msfdr, in that order, from
    each family's default-rule labels (an "@rule" label is another method)."""
    families = ("bh", "tsfdr", "msfdr")
    levels = {}
    with _large_q_warned():  # each label warned when its run was asked for
        for label, value in worst.items():
            spec, rule = parse_method(label)
            if spec.family in families and rule is None:
                levels[spec.family, spec.q] = value
    return {family: {q: v for (f, q), v in sorted(levels.items()) if f == family}
            for family in families}
