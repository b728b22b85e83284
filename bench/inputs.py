"""Seeded benchmark inputs, built without calling radialgeo.

Everything here depends only on numpy and the seed, so the inputs stay
the same when the code under test changes:

* ``sweep_profiles`` draws random piecewise-linear curvature profiles on
  [0, 50] from the family of acceptance criterion 7 (1 to 4 segments,
  coefficients uniform in [-1, 1], zero tail), stratified by growth;
* ``certify_samples`` builds manifold ball volumes ratio(t) * vol_model(t)
  for a gallery entry, with the model volume omega * int_0^t f^(n-1)
  integrated here from the entry's closed-form warping function, and a
  seeded ratio that is nonincreasing in (0, 1] with a positive limit.
"""

from __future__ import annotations

import math

import numpy as np

SWEEP_T_END = 50.0
# draws per sweep profile kept, for the stratified sample
SWEEP_OVERSAMPLE = 8

# closed-form warping functions of the finite gallery entries
_SQRT6 = math.sqrt(6.0)
_LN2 = math.log(2.0)
WARPING = {
    "flat": lambda t: t,
    "abresch_tail": lambda t: (1.0 + t) * np.sinh(_SQRT6 * t / (1.0 + t)) / _SQRT6,
    "sign_changing_beta_ln2": lambda t: t * np.exp(-_LN2 * t * t / (1.0 + t * t)),
}

# Gauss-Legendre rule on sub-panels no wider than _PANEL; the integrands
# are analytic with features on the scale of 1, so 16 nodes per unit
# length leave the volumes exact to rounding
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_PANEL = 1.0


def _growth_exponent(lo, hi, c0, c1):
    """Elementwise integral of sqrt(max(-(c0 + c1 t), 0)) over [lo, hi]."""
    g_lo, g_hi = -(c0 + c1 * lo), -(c0 + c1 * hi)
    flat = np.abs(c1) < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        sloped = (2.0 / 3.0) * (np.maximum(g_hi, 0.0) ** 1.5
                                - np.maximum(g_lo, 0.0) ** 1.5) / -c1
    return np.where(flat, (hi - lo) * np.sqrt(np.maximum(g_lo, 0.0)), sloped)


def sweep_profiles(rng: np.random.Generator, count: int,
                   block: int) -> list[list[tuple]]:
    """``count`` profiles as lists of (t_start, t_end, c0, c1) segments.

    Profiles are drawn from the criterion-7 family: 1 to 4 segments split
    at uniform knots (a knot within 1e-3 of the previous one is dropped),
    coefficients uniform in [-1, 1].  The sample is stratified so that
    the mix of solve costs hardly depends on the seed: SWEEP_OVERSAMPLE x
    ``count`` independent draws are sorted by int sqrt(max(-K, 0)), the
    exponent of the solutions' growth, which orders their solve cost; one
    draw is taken at random from each of ``count`` equal strata.  Every
    block of ``block`` consecutive profiles spans all the strata.
    """
    draws = SWEEP_OVERSAMPLE * count
    nseg = rng.integers(1, 5, draws)
    knots = np.sort(np.where(np.arange(3) < (nseg - 1)[:, None],
                             rng.uniform(0.0, SWEEP_T_END, (draws, 3)), SWEEP_T_END),
                    axis=1)
    coeffs = rng.uniform(-1.0, 1.0, (draws, 4, 2))
    edges = np.concatenate([np.zeros((draws, 1)), knots,
                            np.full((draws, 1), SWEEP_T_END)], axis=1)
    exponent = _growth_exponent(edges[:, :-1], edges[:, 1:],
                                coeffs[:, :, 0], coeffs[:, :, 1]).sum(axis=1)
    strata = np.argsort(exponent, kind="stable").reshape(count, SWEEP_OVERSAMPLE)
    picks = strata[np.arange(count), rng.integers(0, SWEEP_OVERSAMPLE, count)]
    blocks = picks.reshape(-1, count // block).T
    profiles = []
    for members in blocks:
        for i in rng.permutation(members):
            bounds = [0.0]
            for b in [*knots[i, :nseg[i] - 1].tolist(), SWEEP_T_END]:
                if b - bounds[-1] > 1e-3:
                    bounds.append(b)
            bounds[-1] = SWEEP_T_END
            profiles.append([(lo, hi, *map(float, coeffs[i, k]))
                             for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))])
    return profiles


def sphere_volume(n: int) -> float:
    """Volume of the unit (n-1)-sphere."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def model_volumes(f, n: int, radii: np.ndarray) -> np.ndarray:
    """omega_{n-1} * int_0^r f^(n-1) at each increasing radius r."""
    edges = np.concatenate(([0.0], radii))
    pieces = np.maximum(np.ceil(np.diff(edges) / _PANEL), 1).astype(int)
    owner = np.repeat(np.arange(len(radii)), pieces)
    # sub-panel k of interval i spans a fraction [k, k+1] / pieces[i]
    first = np.repeat(np.cumsum(pieces) - pieces, pieces)
    k = np.arange(owner.size) - first
    width = np.diff(edges)[owner] / pieces[owner]
    lo = edges[owner] + k * width
    half = 0.5 * width
    x = (lo + half)[:, None] + half[:, None] * _GL_X[None, :]
    panel_sums = (f(x) ** (n - 1)) @ _GL_W * half
    increments = np.bincount(owner, weights=panel_sums, minlength=len(radii))
    return sphere_volume(n) * np.cumsum(increments)


def certify_samples(rng: np.random.Generator, entry: str, n: int,
                    count: int, t_max: float) -> tuple[np.ndarray, np.ndarray]:
    """(radii, volumes) of a manifold that is ratio(t) times the model.

    Radii are jittered on a uniform grid in (0, t_max), strictly
    increasing.  ratio(t) = r_inf + (1 - r_inf) a / (1 + t / tau) falls
    by far more than the model's numerical error between neighbouring
    radii, so Bishop-Gromov monotonicity holds with room to spare.
    """
    radii = t_max * (np.arange(count) + rng.uniform(0.05, 0.95, count)) / count
    r_inf = rng.uniform(0.4, 0.8)
    a = rng.uniform(0.3, 0.9)
    tau = rng.uniform(50.0, 200.0)
    ratio = r_inf + (1.0 - r_inf) * a / (1.0 + radii / tau)
    return radii, ratio * model_volumes(WARPING[entry], n, radii)
