"""cumlab's special functions against scipy.special, their oracle."""

import math

import numpy as np
import pytest
from scipy import special

from cumlab import _special


def same_bits(got, want):
    return repr(float(got)) == repr(float(want))


def test_logsumexp_equals_scipy():
    rng = np.random.default_rng(1)
    for size in range(1, 201):
        for scale in (1.0, 30.0, 1e3):
            a = rng.normal(scale=scale, size=size)
            holed = np.where(rng.random(size) < 0.3, -np.inf, a)
            for x in (a, holed, np.full(size, -np.inf), np.repeat(a[:1], size)):
                assert same_bits(_special.logsumexp(x), special.logsumexp(x)), (size, x)
    for x in ([0.0], [-np.inf], [7.5], [-1e300, 1e300]):
        assert same_bits(_special.logsumexp(np.array(x)), special.logsumexp(x)), x


def test_log_ndtr_matches_scipy():
    # dense over [-60, 10] and on both sides of each branch point: |x| = sqrt 2
    # and 8 sqrt 2 (|t| = 1 and 8 for t = x / sqrt 2, where the fit changes)
    # and x = -1, where scipy changes form.  The worst relative difference
    # is 1.02e-15, at x just below sqrt 2, where log Phi is -0.082 and the
    # erf-branch value has an absolute error of 1 ulp; the bound leaves 2x.
    edges = np.array([-8.0 * math.sqrt(2.0), -math.sqrt(2.0), -1.0, 0.0, math.sqrt(2.0),
                      8.0 * math.sqrt(2.0)])
    near = edges[:, None] + np.linspace(-1e-3, 1e-3, 2001)
    x = np.concatenate([np.linspace(-60.0, 10.0, 700_001), near.ravel(),
                        np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    x = x[x <= 10.0]
    got, want = _special.log_ndtr(x), special.log_ndtr(x)
    assert np.max(np.abs(got - want) / np.abs(want)) < 2e-15


def test_log_ndtr_is_finite_and_takes_any_shape():
    x = np.array([-1.8e154, -1e100, -1e10, -40.0, 0.0, 40.0, 1e10, 1e300])
    got = _special.log_ndtr(x)
    assert np.all(np.isfinite(got)) and np.all(got <= 0.0)
    assert got[0] == pytest.approx(-0.9e154 * 1.8e154, rel=1e-14)  # -x^2/2, near -max float
    assert np.array_equal(_special.log_ndtr(x.reshape(2, 4)), got.reshape(2, 4))
    scalar = _special.log_ndtr(-3.0)
    assert isinstance(scalar, np.float64)
    assert scalar == pytest.approx(special.log_ndtr(-3.0), rel=2e-15)
