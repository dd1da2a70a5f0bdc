"""Shared test set-up: a deterministic hypothesis profile and MNIST-shaped data."""

import warnings

import numpy as np
import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # the same examples on every run, so two runs of the suite compare alike
    settings.register_profile("deterministic", derandomize=True)
    settings.load_profile("deterministic")
    # hypothesis's pytest plugin imports this module only to report a failing
    # example; importing it warns DeprecationWarning (from mypy_extensions),
    # which filterwarnings = ["error"] would turn into a pytest INTERNALERROR
    # that hides the falsifying example. Import it here, with that warning off.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            import hypothesis.extra._patching  # noqa: F401
        except ImportError:
            pass


@pytest.fixture
def mnist_like():
    """300 rows of 28x28 inputs over 10 classes, quantised to k/255 with a
    zero background: one sparse stroke prototype per class plus pixel noise."""
    rng = np.random.default_rng(784)
    protos = np.where(rng.uniform(size=(10, 784)) < 0.2, rng.uniform(size=(10, 784)), 0.0)
    y = rng.permutation(np.arange(300) % 10)
    X = np.clip(protos[y] + rng.normal(0.0, 0.3, size=(300, 784)), 0.0, 1.0)
    X = np.round(X * 255.0) / 255.0
    X[X < 0.15] = 0.0
    return X, y
