"""Shared fixtures: reference constants, random series builders, comparers."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from treelin import GermSpectrum, FieldSpectrum, ScalarSeries, VectorSeries
from treelin.indices import iter_indices

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SILVER = math.sqrt(2.0) - 1.0
ROOT = Path(__file__).resolve().parent.parent


def run_python(*args: str, text: bool = True) -> subprocess.CompletedProcess:
    """A fresh interpreter with the checkout's sources first on the path."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True, text=text, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


def random_complex(rng, max_mod=1.0, min_mod=0.05):
    r = rng.uniform(min_mod, max_mod)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(phi), r * math.sin(phi))


def random_scalar_series(rng, n, trunc, min_degree=0, max_degree=None, density=1.0):
    max_degree = trunc if max_degree is None else max_degree
    coeffs = {}
    for alpha in iter_indices(n, max_degree, min_degree):
        if rng.uniform() <= density:
            coeffs[alpha] = random_complex(rng)
    return ScalarSeries(n, trunc, coeffs)


def random_vector_series(rng, n, trunc, min_degree=2, max_degree=None, density=1.0):
    """Random nonlinear part with a guaranteed dense lowest stratum."""
    max_degree = trunc if max_degree is None else max_degree
    coeffs = {}
    for alpha in iter_indices(n, max_degree, min_degree):
        dense_floor = sum(alpha) == min_degree
        vec = tuple(
            random_complex(rng) if dense_floor or rng.uniform() <= density else 0j
            for _ in range(n)
        )
        coeffs[alpha] = vec
    return VectorSeries.from_coeffs(n, trunc, coeffs)


def random_dyadic(rng):
    """A nonzero complex number with dyadic parts; arithmetic on a few such
    values is exact in doubles, so z-adic norms see true cancellations."""
    while True:
        re = int(rng.integers(-8, 9))
        im = int(rng.integers(-8, 9))
        if re or im:
            return complex(re / 16.0, im / 16.0)


def random_dyadic_vector_series(rng, n, trunc, min_degree=0, max_degree=None,
                                density=0.5):
    max_degree = trunc if max_degree is None else max_degree
    coeffs = {}
    for alpha in iter_indices(n, max_degree, min_degree):
        vec = tuple(
            random_dyadic(rng) if rng.uniform() <= density else 0j for _ in range(n)
        )
        if any(v != 0 for v in vec):
            coeffs[alpha] = vec
    return VectorSeries.from_coeffs(n, trunc, coeffs)


def moduli(series_: VectorSeries) -> VectorSeries:
    """The coefficient moduli of a vector series, as a complex vector series."""
    array = np.abs(series_.to_array()).astype(complex)
    return VectorSeries.from_array(series_.n, series_.trunc, array)


def _rows(s):
    return s.to_array() if isinstance(s, VectorSeries) else s.vector


def approx_equal(a, b, rel=1e-9, abs_tol=1e-12) -> bool:
    """Every row within max(abs_tol, rel * max(1, its largest modulus in either series)).

    Two series of different n or truncation raise ``TruncationMismatch``.
    """
    gap = np.abs(_rows(a - b)).max(axis=-1)
    scale = np.maximum(np.abs(_rows(a)).max(axis=-1), np.abs(_rows(b)).max(axis=-1))
    return bool((gap <= np.maximum(abs_tol, rel * np.maximum(scale, 1.0))).all())


def assert_series_close(a, b, rel=1e-9, abs_tol=1e-12):
    __tracebackhide__ = True
    ok = approx_equal(a, b, rel, abs_tol)
    if isinstance(a, VectorSeries):
        gap = (a - b).max_abs()
    else:
        gap = max(
            abs(a.get(k) - b.get(k)) for k in (a.support | b.support)
        ) if (a.support | b.support) else 0.0
    assert ok, f"series differ by {gap:.3e}"


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def golden_spectrum_1d():
    return GermSpectrum.from_rotation((GOLDEN,))


@pytest.fixture
def golden_silver_spectrum():
    return GermSpectrum.from_rotation((GOLDEN, SILVER))


@pytest.fixture
def planar_field_spectrum():
    return FieldSpectrum((-1.0, GOLDEN))
