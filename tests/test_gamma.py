"""The gamma function as the two densities use it.

Their norm constants divide by Gamma(shape), computed in log space with
``math.lgamma``, and their Jacobians need its log-derivative psi, the
digamma function.  ``shifted_menzerath_norm(x - 1, 1)`` is 1 / Gamma(x), so
the identities of Gamma are checked through it.
"""

import math

import numpy as np
import pytest

from textlaws import DomainError
from textlaws.fitting.models import digamma, shifted_menzerath_norm

try:
    from scipy.special import digamma as scipy_digamma
except ImportError:  # scipy is a test extra
    scipy_digamma = None

# Frozen quadrature oracle: integral over t in (0, inf) of t**5.805 * exp(-t),
# evaluated by adaptive quadrature to ~1e-12 relative.
GAMMA_6_805_QUADRATURE = 501.20092328997526
EULER_GAMMA = 0.5772156649015329


def gamma_fn(x):
    return 1.0 / shifted_menzerath_norm(x - 1.0, 1.0)


def test_gamma_one_is_one():
    assert abs(gamma_fn(1.0) - 1.0) <= 1e-10


def test_gamma_half_is_sqrt_pi():
    assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) / math.sqrt(math.pi) <= 1e-10


@pytest.mark.parametrize("n", range(2, 13))
def test_factorial_identity(n):
    expected = math.factorial(n - 1)
    assert abs(gamma_fn(float(n)) - expected) / expected <= 1e-10


def test_against_quadrature_oracle():
    assert abs(gamma_fn(6.805) - GAMMA_6_805_QUADRATURE) / GAMMA_6_805_QUADRATURE <= 1e-10


@pytest.mark.parametrize("x", [1e-3, 0.1, 0.25, 0.77, 1.5, 3.3, 7.7, 12.9, 21.4, 33.0])
def test_against_reference_implementation(x):
    ref = math.gamma(x)
    assert abs(gamma_fn(x) - ref) / abs(ref) <= 1e-10


@pytest.mark.parametrize("x", [0.0, -1.0, -0.5, float("nan"), float("inf")])
def test_domain_rejections(x):
    with pytest.raises(DomainError):
        gamma_fn(x)


def test_digamma_identities():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-13)
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-13)
    for x in np.geomspace(1e-3, 1e3, 61).tolist():
        # the sum cancels up to 1/x, so the bound scales with it
        assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-13 * max(1.0 / x, 1.0)


@pytest.mark.skipif(scipy_digamma is None, reason="scipy is not installed")
def test_digamma_matches_scipy():
    xs = np.geomspace(1e-3, 1e3, 2001)
    ours = np.array([digamma(x) for x in xs.tolist()])
    theirs = scipy_digamma(xs)
    # relative, or absolute where |psi| < 1
    assert np.all(np.abs(ours - theirs) <= 1e-13 * np.maximum(np.abs(theirs), 1.0))
