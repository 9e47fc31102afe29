"""H-Chameleon core: the paper's contribution (Section IV).

Couples the CHAMELEON-style tile descriptors and tiled algorithms with
HMAT-OSS-style H-matrix tiles and the StarPU-style runtime:

* :mod:`.descriptor` — ``Tile`` / ``TileDesc`` / ``TileHDesc``, the Python
  analogues of the paper's Structures 1-3;
* :mod:`.clustering` — the Tile-H clustering driver (``NTilesRecursive`` +
  per-tile refinement + per-tile block cluster trees);
* :mod:`.build` — Tile-H matrix assembly;
* :mod:`.algorithms` — the tiled LU (Algorithm 1) and tile-level solves as
  STF task submissions;
* :mod:`.sweep` — the forward/backward substitution compiled once per factor
  into a flat program, and the one interpreter every solve path runs;
* :mod:`.solver` — the public solver API (:class:`TileHMatrix`).
"""

from .descriptor import Tile, TileDesc, TileHDesc
from .clustering import TileHClustering, build_tile_h_clustering
from .build import build_tile_h, assemble_priority
from .algorithms import (
    tiled_getrf_tasks,
    tiled_potrf_tasks,
    tiled_solve,
    tiled_solve_tasks,
    tiled_chol_solve,
    tiled_chol_solve_tasks,
    sweep_solve_tasks,
    submit_sweep_tasks,
    lu_priorities,
    apply_bottom_level_priorities,
)
from .sweep import SweepProgram, compile_sweep
from .solver import (
    EXEC_MODES, FACTOR_METHODS, PRIORITY_MODES, TileHConfig, TileHMatrix, FactorizationInfo,
    default_nb, iterative_refinement,
)
from .krylov import KrylovResult, gmres, pcg

__all__ = [
    "Tile",
    "TileDesc",
    "TileHDesc",
    "TileHClustering",
    "build_tile_h_clustering",
    "build_tile_h",
    "tiled_getrf_tasks",
    "tiled_potrf_tasks",
    "tiled_solve",
    "tiled_solve_tasks",
    "tiled_chol_solve",
    "tiled_chol_solve_tasks",
    "sweep_solve_tasks",
    "submit_sweep_tasks",
    "SweepProgram",
    "compile_sweep",
    "lu_priorities",
    "apply_bottom_level_priorities",
    "assemble_priority",
    "TileHConfig",
    "EXEC_MODES",
    "PRIORITY_MODES",
    "FACTOR_METHODS",
    "default_nb",
    "TileHMatrix",
    "FactorizationInfo",
    "iterative_refinement",
    "KrylovResult",
    "gmres",
    "pcg",
]
