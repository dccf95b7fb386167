"""Randomized inequality suites: 10^4 seeded draws per property, no
violations beyond 1e-10 allowed."""

import json

import numpy as np
import pytest

from concavelab import run_property_suite
from concavelab.errors import ValidityViolation

DRAWS = 10000


@pytest.fixture(scope="module")
def suite():
    return run_property_suite(seed=1, draws=DRAWS)


def _entry(suite, name):
    for e in suite["results"]:
        if e["name"] == name:
            return e
    raise KeyError(name)


def test_no_violations_overall(suite):
    assert suite["violations"] == 0
    assert suite["seed"] == 1


@pytest.mark.parametrize("name", ["harmonic_dominates", "time_rescaling",
                                  "product_bound", "quotient_bound",
                                  "difference_bound"])
def test_each_property_clean(suite, name):
    e = _entry(suite, name)
    assert e["violations"] == 0
    assert e["worst_margin"] >= -1e-10
    assert e["draws"] + e["skipped"] > 0


def test_draw_accounting(suite):
    for e in suite["results"]:
        assert e["draws"] + e["skipped"] == DRAWS


def test_product_bound_exercises_side_condition(suite):
    # the side condition must both pass and fail across random draws
    e = _entry(suite, "product_bound")
    assert e["draws"] > 1000
    assert e["skipped"] > 1000


def test_suite_deterministic():
    a = run_property_suite(seed=7, draws=500)
    b = run_property_suite(seed=7, draws=500)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_different_seeds_differ():
    a = run_property_suite(seed=1, draws=500)
    b = run_property_suite(seed=2, draws=500)
    ma = [e["worst_margin"] for e in a["results"]]
    mb = [e["worst_margin"] for e in b["results"]]
    assert ma != mb


def test_difference_bound_certificate_raises(monkeypatch):
    # draw the subtracted term's exponent from [1, 2], where t^gamma is
    # not harmonically concave, so the certificate must fail
    real = np.random.default_rng

    class ConvexExponents:
        def __init__(self, seed):
            self._rng = real(seed)

        def __getattr__(self, name):
            return getattr(self._rng, name)

        def uniform(self, low=0.0, high=1.0, size=None):
            if (low, high) == (-1.0, 0.0):
                low, high = 1.0, 2.0
            return self._rng.uniform(low, high, size)

    monkeypatch.setattr(np.random, "default_rng", ConvexExponents)
    with pytest.raises(ValidityViolation, match="harmonically concave"):
        run_property_suite(seed=1, draws=500)
