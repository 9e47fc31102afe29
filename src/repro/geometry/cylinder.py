"""Point-cloud generators for the TEST_FEMBEM-style test cases.

The paper's test case (Section V-A) places ``n`` points *equally spaced in
both directions* on the surface of a cylinder of chosen height and width.  The
resulting geometry drives the cluster-tree construction and the interaction
matrix ``a_ij = K(|x_i - x_j|)``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["cylinder_cloud", "sphere_cloud", "plate_cloud", "mesh_step", "GEOMETRIES"]


def cylinder_cloud(
    n: int,
    *,
    radius: float = 1.0,
    height: float | None = None,
    seed: int | None = None,
) -> np.ndarray:
    """Generate ``n`` points equally spaced on the surface of a cylinder.

    The points form a regular grid: ``n_theta`` points around the
    circumference and ``n_z`` rings along the height, with the angular and
    vertical spacings matched so the mesh is (approximately) isotropic, as in
    the paper's TEST_FEMBEM generator.

    Parameters
    ----------
    n:
        Requested number of points.  The actual grid holds exactly ``n``
        points: the final ring is partially filled if ``n`` does not factor
        into a full grid.
    radius:
        Cylinder radius ("width" in the paper's phrasing).
    height:
        Cylinder height.  By default it is chosen so that the vertical step
        equals the circumferential step when the grid is full, giving the
        isotropic sampling the paper relies on.
    seed:
        If given, add a tiny deterministic jitter (1e-9 of the mesh step) to
        break exact ties in clustering; useful for property tests.

    Returns
    -------
    ndarray of shape (n, 3)
        Cartesian coordinates, C-contiguous float64.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    circumference = 2.0 * math.pi * radius
    # Choose n_theta x n_z ~ n with step_theta ~ step_z:
    # step = circumference / n_theta = height / n_z and n_theta * n_z = n.
    if height is None:
        # Isotropic default: aspect ratio height/circumference = 2.
        height = 2.0 * circumference
    aspect = height / circumference
    n_theta = max(4, int(round(math.sqrt(n / aspect))))
    n_z = max(1, int(math.ceil(n / n_theta)))

    theta_step = 2.0 * math.pi / n_theta
    z_step = height / n_z

    idx = np.arange(n)
    ring = idx // n_theta
    slot = idx % n_theta
    # Offset alternate rings by half a step so columns do not align exactly,
    # mimicking a structured surface mesh.
    theta = slot * theta_step + 0.5 * theta_step * (ring % 2)
    z = (ring + 0.5) * z_step

    pts = np.empty((n, 3), dtype=np.float64)
    pts[:, 0] = radius * np.cos(theta)
    pts[:, 1] = radius * np.sin(theta)
    pts[:, 2] = z
    if seed is not None:
        rng = np.random.default_rng(seed)
        pts += rng.uniform(-1e-9, 1e-9, size=pts.shape) * min(theta_step * radius, z_step)
    return pts


def sphere_cloud(n: int, *, radius: float = 1.0) -> np.ndarray:
    """Generate ``n`` points quasi-uniformly on a sphere (Fibonacci lattice).

    Used by the extra examples; a sphere produces a different cluster-tree
    shape than the cylinder (no long axis), which exercises the geometric
    bisection differently.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    idx = np.arange(n, dtype=np.float64)
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    theta = 2.0 * math.pi * idx / golden
    z = 1.0 - (2.0 * idx + 1.0) / n
    r_xy = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.empty((n, 3), dtype=np.float64)
    pts[:, 0] = radius * r_xy * np.cos(theta)
    pts[:, 1] = radius * r_xy * np.sin(theta)
    pts[:, 2] = radius * z
    return pts


def plate_cloud(n: int, *, width: float = 1.0, height: float = 1.0) -> np.ndarray:
    """Generate ``n`` points on a flat rectangular plate grid (z = 0).

    A degenerate (2-D) geometry: useful to test that clustering and
    admissibility behave when one bounding-box dimension collapses.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    nx = max(1, int(round(math.sqrt(n * width / height))))
    ny = max(1, int(math.ceil(n / nx)))
    idx = np.arange(n)
    ix = idx % nx
    iy = idx // nx
    pts = np.zeros((n, 3), dtype=np.float64)
    pts[:, 0] = (ix + 0.5) * (width / nx)
    pts[:, 1] = (iy + 0.5) * (height / ny)
    return pts


#: Point-cloud factory by geometry name (the geometries a problem can name).
GEOMETRIES = {"cylinder": cylinder_cloud, "sphere": sphere_cloud, "plate": plate_cloud}


def mesh_step(points: np.ndarray, sample: int = 256) -> float:
    """Estimate the mesh step (typical nearest-neighbour distance).

    The paper removes the kernel singularity at ``d = 0`` by replacing it with
    *half the mesh step*; this helper provides that step without an O(n^2)
    all-pairs scan: it measures nearest-neighbour distances for a deterministic
    subsample of the cloud.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n < 2:
        raise ValueError("mesh_step needs at least two points")
    take = min(sample, n)
    stride = max(1, n // take)
    probes = pts[::stride][:take]
    # Vectorised distance of each probe to the whole cloud (streamed is not
    # needed: probes are few).
    d2 = ((probes[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    # Exclude self-distances.
    np.place(d2, d2 <= 0.0, np.inf)
    nearest = np.sqrt(d2.min(axis=1))
    return float(np.median(nearest))
