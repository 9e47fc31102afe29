"""Gaussian-process regression on H-compressed covariances.

The first user-facing ML workload over the Tile-H stack (the GPXPy /
GPPPy_hpx / GPRat pipeline, task-parallel edition):

* **train** — the covariance matrix ``K = K_f(X, X) + s_n^2 I`` of a GP
  covariance kernel (:data:`~repro.geometry.GP_KERNELS`) is assembled in
  Tile-H form and factorised with the tiled H-Cholesky
  (:meth:`~repro.core.TileHMatrix.build_factorize`, eager/threaded/process,
  nested expansion included);
* **predict** — posterior mean and predictive variance at test points are
  one panel solve: the cross-covariance panel is evaluated once, solved by
  the factor's compiled forward/backward sweep, and folded into mean and
  variance;
* **pcg refinement** — a loose (cheap) H-Cholesky acts as the preconditioner
  of :func:`~repro.core.pcg` against the exact streamed covariance operator,
  recovering tight posterior means at loose ACA tolerances.

Served through the solve service, a GP problem is a first-class
:class:`~repro.service.ProblemSpec` (``kind="gp"``): training is the cold
factorisation into the :class:`~repro.service.FactorizationStore`, and each
prediction point is one solve request whose right-hand side is its
cross-covariance column — concurrent predictions coalesce in the
micro-batcher into one panel sweep, and the same fold turns the solved
columns into the same bits as :meth:`~repro.gp.GPModel.predict`.  See
``docs/gp.md``.
"""

from .data import synthetic_gp_data, latent_function
from .model import GPModel, GPPredictResult

__all__ = [
    "GPModel",
    "GPPredictResult",
    "latent_function",
    "synthetic_gp_data",
]
