"""Standard-normal quantiles, p-values and seeded random streams.

The quantile function is the standard library's
``statistics.NormalDist.inv_cdf`` (Wichura's AS241), accurate to
roughly 1e-16 over the full open unit interval, so it is safe to call
for the extreme tail levels that FDR step constants produce for large
variable pools.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

__all__ = [
    "inverse_normal_cdf",
    "two_sided_pvalue",
    "RandomSource",
]


_inv_cdf = NormalDist().inv_cdf


def inverse_normal_cdf(p):
    """Return z such that the standard normal CDF at z equals ``p``.

    ``p`` is a float or an array; a float gives a float and an array an
    array of its shape, each element the quantile of its own ``p``.

    Raises
    ------
    ValueError
        If any ``p`` is not strictly inside (0, 1).
    """
    pa = np.asarray(p, dtype=float)
    inside = (pa > 0.0) & (pa < 1.0)
    if not inside.all():
        bad = float(pa[~inside].flat[0])
        raise ValueError(f"probability must lie in the open interval (0, 1), got {bad!r}")
    if pa.ndim == 0:
        return _inv_cdf(float(pa))
    return np.array([_inv_cdf(x) for x in pa.ravel().tolist()]).reshape(pa.shape)


def two_sided_pvalue(tsq: float) -> float:
    """Two-sided p-value for a squared standardized coefficient."""
    if tsq < 0.0:
        raise ValueError("squared statistic must be nonnegative")
    return math.erfc(math.sqrt(tsq) / math.sqrt(2.0))


@dataclass(frozen=True)
class RandomSource:
    """Immutable descriptor of one reproducible Gaussian stream.

    Streams are keyed by ``(seed, stream_id)`` through NumPy's
    ``SeedSequence``/PCG64 machinery, so distinct stream ids give
    statistically independent sub-streams and identical keys reproduce
    bit-identical output on any platform.
    """

    seed: int
    stream_id: int = 0

    def substream(self, *key: int) -> "RandomSource":
        """Derive a child stream; the child key extends the parent's."""
        mixed = np.random.SeedSequence([self.seed, self.stream_id, *key])
        child_seed, child_stream = mixed.generate_state(2, np.uint64)
        return RandomSource(int(child_seed), int(child_stream))

    def generator(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, self.stream_id]))
        )
