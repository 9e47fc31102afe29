"""Baselines the paper evaluates against or discusses.

* :mod:`.hmat` — the pure global H-matrix solver with a *fine-grained* task
  DAG (one task per leaf kernel, dependencies enumerated over leaf data),
  standing in for Airbus' proprietary HMAT/StarPU implementation;
* :mod:`.blr` — the Block Low-Rank flat format (related work, Section III);
* :mod:`.dense_tiled` — the classic full-rank tiled LU (CHAMELEON without
  H-arithmetic), the flop/accuracy reference.
"""

from .hmat import HMatSolver
from .blr import build_blr, BLRMatrix
from .dense_tiled import DenseTiledLU, DenseTiledCholesky

__all__ = ["HMatSolver", "build_blr", "BLRMatrix", "DenseTiledLU", "DenseTiledCholesky"]
