"""Deterministic synthetic regression data over the experiment geometries.

GP training sets reuse the paper's point clouds (cylinder / sphere / plate
surfaces) as input locations so one clustering/compression stack serves both
the BEM solves and the regression workload.  Targets are a fixed smooth
latent function of the coordinates plus seeded Gaussian observation noise —
every call with the same arguments reproduces the same dataset bit for bit,
which the exactness and store round-trip tests rely on.
"""

from __future__ import annotations

import numpy as np

from ..geometry import GEOMETRIES

__all__ = ["latent_function", "synthetic_gp_data"]


def latent_function(points: np.ndarray) -> np.ndarray:
    """The noise-free ground truth ``f`` sampled by :func:`synthetic_gp_data`.

    A smooth multi-scale field over the coordinates (wavelengths well above
    the mesh step at the sizes the tests/benchmarks use, so a GP with a
    moderate length scale can actually recover it).
    """
    p = np.asarray(points, dtype=np.float64)
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    return np.sin(3.0 * x + 1.0) * np.cos(2.0 * y) + 0.5 * np.sin(2.0 * z + 0.5)


def synthetic_gp_data(
    n: int,
    n_test: int = 64,
    *,
    geometry: str = "cylinder",
    noise: float = 0.1,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Build a reproducible regression problem on an experiment geometry.

    Returns ``(X, y, X_test, f_test)``: ``n`` training locations with noisy
    observations ``y = f(X) + noise * g`` (``g`` seeded standard normal),
    plus ``n_test`` test locations with their *noise-free* latent values for
    error reporting.  Test locations come from a different-resolution cloud
    of the same surface, so they generally interleave the training points
    (coincident points are harmless: the kernel's nugget convention just
    pulls the posterior toward the observation there).
    """
    if geometry not in GEOMETRIES:
        raise ValueError(f"unknown geometry {geometry!r}; choose from {tuple(GEOMETRIES)}")
    if n < 1 or n_test < 1:
        raise ValueError(f"need n >= 1 and n_test >= 1, got n={n}, n_test={n_test}")
    cloud = GEOMETRIES[geometry]
    x_train = cloud(n)
    x_test = cloud(n_test)
    rng = np.random.default_rng(seed)
    y = latent_function(x_train) + float(noise) * rng.standard_normal(n)
    return x_train, y, x_test, latent_function(x_test)
