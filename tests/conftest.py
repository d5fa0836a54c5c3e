"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.rng import LFSR, Halton, SystemRNG, VanDerCorput


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: a test that takes seconds, not milliseconds (still part of the "
        "default run; deselect with -m 'not slow')",
    )
    # A RuntimeWarning (an invalid cast, a divide by zero, NaN reaching
    # an integer) marks a number that may be silently wrong: fail the
    # test, on every command line that runs the suite. A test that means
    # to provoke one scopes ``np.errstate`` or ``pytest.warns``.
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")


@pytest.fixture(autouse=True)
def _isolated_result_store(tmp_path, monkeypatch):
    """Point the runner's default store at a throwaway directory so CLI
    tests never write a ``.repro-store`` into the working tree."""
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "repro-store"))


@pytest.fixture
def n() -> int:
    """Default stream length used across tests (shorter than the paper's
    256 where exactness doesn't depend on it, for speed)."""
    return 256


@pytest.fixture
def vdc_rng():
    return VanDerCorput(width=8)


@pytest.fixture
def halton_rng():
    return Halton(base=3, width=8)


@pytest.fixture
def lfsr_rng():
    return LFSR(width=8)


@pytest.fixture
def sys_rng():
    return SystemRNG(width=8, seed=1234)


@pytest.fixture
def rng_pair(vdc_rng, halton_rng):
    """An uncorrelated RNG pair (the paper's Table III configuration)."""
    return vdc_rng, halton_rng


def make_pair_batch(rng_x, rng_y, n=256, step=16):
    """Small exhaustive pair batch helper usable without importing
    repro.analysis in low-level tests."""
    levels = np.arange(0, n, step, dtype=np.int64)
    xs = np.repeat(levels, levels.size)
    ys = np.tile(levels, levels.size)
    sx = rng_x.sequence(n)
    sy = rng_y.sequence(n)
    x = (xs[:, None] > sx[None, :]).astype(np.uint8)
    y = (ys[:, None] > sy[None, :]).astype(np.uint8)
    return x, y, xs, ys


@pytest.fixture
def pair_batch(rng_pair):
    rng_x, rng_y = rng_pair
    return make_pair_batch(rng_x, rng_y)
