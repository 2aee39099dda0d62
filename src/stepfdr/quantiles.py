"""Standard-normal quantiles, p-values and seeded random streams.

The quantile function uses Wichura's PPND16 rational approximation,
accurate to roughly 1e-16 over the full open unit interval, so it is
safe to call for the extreme tail levels that FDR step constants
produce for large variable pools.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "inverse_normal_cdf",
    "two_sided_pvalue",
    "RandomSource",
]


# PPND16 coefficients (central region |p - 0.5| <= 0.425).
_A = (
    3.3871328727963666080e0,
    1.3314166789178437745e2,
    1.9715909503065514427e3,
    1.3731693765509461125e4,
    4.5921953931549871457e4,
    6.7265770927008700853e4,
    3.3430575583588128105e4,
    2.5090809287301226727e3,
)
_B = (
    1.0,
    4.2313330701600911252e1,
    6.8718700749205790830e2,
    5.3941960214247511077e3,
    2.1213794301586595867e4,
    3.9307895800092710610e4,
    2.8729085735721942674e4,
    5.2264952788528545610e3,
)
# Intermediate region (r <= 5, i.e. p down to ~1.4e-11).
_C = (
    1.42343711074968357734e0,
    4.63033784615654529590e0,
    5.76949722146069140550e0,
    3.64784832476320460504e0,
    1.27045825245236838258e0,
    2.41780725177450611770e-1,
    2.27238449892691845833e-2,
    7.74545014278341407640e-4,
)
_D = (
    1.0,
    2.05319162663775882187e0,
    1.67638483018380384940e0,
    6.89767334985100004550e-1,
    1.48103976427480074590e-1,
    1.51986665636164571966e-2,
    5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
# Far-tail region (r > 5).
_E = (
    6.65790464350110377720e0,
    5.46378491116411436990e0,
    1.78482653991729133580e0,
    2.96560571828504891230e-1,
    2.65321895265761230930e-2,
    1.24266094738807843860e-3,
    2.71155556874348757815e-5,
    2.01033439929228813265e-7,
)
_F = (
    1.0,
    5.99832206555887937690e-1,
    1.36929880922735805310e-1,
    1.48753612908506148525e-2,
    7.86869131145613259100e-4,
    1.84631831751005468180e-5,
    1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


def _poly(coeffs, x):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def inverse_normal_cdf(p):
    """Return z such that the standard normal CDF at z equals ``p``.

    ``p`` is a float or an array; a float gives a float.  Each element
    gets exactly the arithmetic of its own PPND16 region.

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
    q = pa - 0.5
    central = np.abs(q) <= 0.425
    s = np.sqrt(-np.log(np.where(q < 0.0, pa, 1.0 - pa)))
    sign = np.where(q < 0.0, -1.0, 1.0)
    z = np.empty_like(q)
    for rows, lead, x, num, den in (
        (central, q, 0.180625 - q * q, _A, _B),
        (~central & (s <= 5.0), sign, s - 1.6, _C, _D),
        (~central & (s > 5.0), sign, s - 5.0, _E, _F),
    ):
        if rows.any():  # most calls hit one region; skip the others' work
            x = x[rows]
            z[rows] = lead[rows] * _poly(num, x) / _poly(den, x)
    return float(z) if pa.ndim == 0 else z


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
