"""TEST_FEMBEM-style geometry and interaction-kernel substrate.

This subpackage reproduces the experimental context of Section V-A of the
paper: a cloud of points equally spaced on the surface of a cylinder, and the
interaction kernels ``K(d) = 1/d`` (real double, "d") and
``K(d) = exp(i k d)/d`` (complex double, "z") with the 10-points-per-wavelength
rule of thumb for the wave number.
"""

from .cylinder import GEOMETRIES, cylinder_cloud, sphere_cloud, plate_cloud, mesh_step
from .kernels import (
    GP_KERNELS,
    SOLVE_KERNELS,
    BlockSampler,
    StackedSampler,
    KernelFunction,
    laplace_kernel,
    helmholtz_kernel,
    gravity_kernel,
    exponential_kernel,
    squared_exponential_kernel,
    matern_kernel,
    make_kernel,
    rule_of_thumb_wavenumber,
)
from .assembly import DenseOperator, assemble_dense, streamed_matvec, assemble_block

__all__ = [
    "cylinder_cloud",
    "sphere_cloud",
    "plate_cloud",
    "mesh_step",
    "GEOMETRIES",
    "KernelFunction",
    "BlockSampler",
    "StackedSampler",
    "laplace_kernel",
    "helmholtz_kernel",
    "gravity_kernel",
    "exponential_kernel",
    "squared_exponential_kernel",
    "matern_kernel",
    "GP_KERNELS",
    "SOLVE_KERNELS",
    "make_kernel",
    "rule_of_thumb_wavenumber",
    "DenseOperator",
    "assemble_dense",
    "streamed_matvec",
    "assemble_block",
]
