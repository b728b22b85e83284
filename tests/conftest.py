import numpy as np
import pytest

import radialgeo as rg
from radialgeo.gallery import entry_by_name


def random_linear_profile(rng: np.random.Generator,
                          t_end: float = 50.0) -> rg.CurvatureProfile:
    """Random continuous-or-not piecewise-linear profile with up to 4
    segments, coefficients in [-1, 1], zero tail."""
    nseg = int(rng.integers(1, 5))
    knots = np.sort(rng.uniform(0.0, t_end, nseg - 1)) if nseg > 1 else np.array([])
    bounds = [0.0]
    for b in [*knots.tolist(), t_end]:
        if b - bounds[-1] > 1e-3:
            bounds.append(b)
    bounds[-1] = t_end
    segments = []
    for lo, hi in zip(bounds, bounds[1:]):
        c0, c1 = rng.uniform(-1.0, 1.0, 2)
        segments.append(rg.Segment(lo, hi, (float(c0), float(c1))))
    return rg.CurvatureProfile(tuple(segments), rg.ZeroTail())


def m_prime_limit(profile: rg.CurvatureProfile, tol: float) -> rg.LimitEstimate:
    """lim m' as evaluate_theorem computes it: one solve of m on the
    default analysis window, then its slope limit."""
    return rg.slope_limit(rg.solve_m(profile, 4096.0, tol))


@pytest.fixture(scope="session")
def beta_ln2_profile():
    return entry_by_name("sign_changing_beta_ln2").profile


@pytest.fixture(scope="session")
def beta_ln2_solution(beta_ln2_profile):
    return rg.solve(beta_ln2_profile, 4096.0, 1e-8)


@pytest.fixture(scope="session")
def abresch_profile():
    return entry_by_name("abresch_tail").profile
