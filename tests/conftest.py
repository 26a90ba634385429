"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

# Keep hypothesis fast and deterministic for CI-style runs.
settings.register_profile("repro", max_examples=25, deadline=None,
                          derandomize=True)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def small_image_batch(rng) -> np.ndarray:
    """A small NCHW batch used by many convolution tests."""
    return rng.normal(size=(2, 3, 12, 10))


@pytest.fixture
def small_kernel(rng) -> np.ndarray:
    return rng.normal(size=(4, 3, 3, 3))


@pytest.fixture
def conv_job():
    """Factory of a pool job (a ``ModelJob``) over a one-conv model."""
    from repro.nn.layers import Conv2d
    from repro.nn.module import Sequential
    from repro.serve import ModelJob

    def make(w, b=None, stride=1, padding=1, transform="F4", backend=None):
        conv = Conv2d(w.shape[1], w.shape[0], w.shape[2], stride=stride,
                      padding=padding, bias=b is not None)
        conv.weight.data = w
        if b is not None:
            conv.bias.data = b
        return ModelJob(Sequential(conv), transform=transform,
                        backend=backend)

    return make
