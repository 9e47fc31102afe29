"""GP regression over the tiled H-Cholesky.

Training factorises the H-compressed covariance ``K = K_f(X, X) + s_n^2 I``
with :meth:`~repro.core.TileHMatrix.build_factorize` (``method="cholesky"``)
— assembly is one serial loop, and ``exec_mode="threaded"``/``"process"``
run the factorisation's recorded task graph, opaque or nested.

A prediction is a panel solve: the cross-covariance panel
``K_* = K(X, X_*)`` is evaluated once, :meth:`~repro.core.TileHMatrix.solve`
replays the factor's compiled sweep on it (``V = K^{-1} K_*``), and
:func:`_posterior` folds ``V`` into the posterior mean ``V^T y`` and the
predictive variance ``diag(K(X_*, X_*)) - colsum(K_* . V)``.  ``repro gp
predict`` applies the same fold to columns solved by the service, and a
panel column is bit-identical to its standalone solve, so served and
in-process predictions agree bit for bit — and so do every ``exec_mode``,
saved and reloaded factors, and ``racecheck`` models (whose solve runs the
sweep's tasks under the detector).

:meth:`GPModel.predict_pcg` is the Krylov path: a *loose* (cheap) H-Cholesky
preconditions :func:`~repro.core.pcg` against the exact streamed covariance
operator, recovering tight posterior means without a tight factorisation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import TileHConfig, TileHMatrix, pcg
from ..geometry import GP_KERNELS, make_kernel
from ..geometry.assembly import streamed_matvec

__all__ = ["GPModel", "GPPredictResult"]


@dataclass
class GPPredictResult:
    """Posterior at the test points.

    ``var`` is the *predictive* variance (latent variance plus the noise
    nugget: the kernel's diagonal convention includes ``s_n^2``), clipped at
    zero against compression round-off.
    """

    mean: np.ndarray
    var: np.ndarray

    def __iter__(self):  # allow ``mean, var = model.predict(xs)`` unpacking
        yield self.mean
        yield self.var


def _posterior(kern, ks: np.ndarray, y: np.ndarray, x_test: np.ndarray,
               v: np.ndarray) -> GPPredictResult:
    """Fold solved cross-covariance columns ``v_j = K^{-1} k_j`` (``ks`` holds
    the ``k_j``) into the posterior: ``mean_j = v_j . y``,
    ``var_j = k(x_j, x_j) - k_j . v_j``.  The one fold of every prediction
    path; ``v`` is taken C-contiguous because the reductions' bits depend on
    their operands' layout."""
    v = np.ascontiguousarray(v)
    var = np.clip(kern.diag(x_test) - np.einsum("ij,ij->j", ks, v), 0.0, None)
    return GPPredictResult(mean=v.T @ y, var=var)


def _check_data(x, y, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``x``/``y`` as contiguous float64, checked against each other and,
    given ``n``, against a factor of ``n`` unknowns."""
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    y = np.ascontiguousarray(np.asarray(y, dtype=np.float64))
    if x.ndim != 2:
        raise ValueError(f"x must be (n, dim) coordinates, got shape {x.shape}")
    if n is not None and x.shape[0] != n:
        raise ValueError(f"x has {x.shape[0]} points but the factor has {n} unknowns")
    if y.shape != (x.shape[0],):
        raise ValueError(f"y must have shape ({x.shape[0]},), got {y.shape}")
    return x, y


class GPModel:
    """Gaussian-process regression with an H-compressed covariance.

    Parameters mirror the service's GP spec: ``kernel`` is one of
    :data:`~repro.geometry.GP_KERNELS`, ``length``/``signal`` the
    covariance hyperparameters, ``noise`` the observation noise standard
    deviation (the assembled covariance carries ``nugget = noise**2`` on its
    diagonal), and ``config`` the full Tile-H stack configuration —
    tile size, ACA tolerance, executor, scheduler, nested expansion.
    """

    def __init__(
        self,
        kernel: str = "sqexp",
        *,
        length: float = 0.25,
        signal: float = 1.0,
        noise: float = 0.1,
        config: TileHConfig | None = None,
    ) -> None:
        if kernel not in GP_KERNELS:
            raise ValueError(f"unknown GP kernel {kernel!r}; choose from {GP_KERNELS}")
        if noise <= 0.0:
            raise ValueError(f"noise must be > 0 (the covariance needs a nugget), got {noise}")
        self.kernel = kernel
        self.length = float(length)
        self.signal = float(signal)
        self.noise = float(noise)
        self.config = config or TileHConfig()
        self.solver_: TileHMatrix | None = None
        self.info_ = None
        self.x_: np.ndarray | None = None
        self.y_: np.ndarray | None = None
        self.kern_ = None

    # -- hyperparameters ------------------------------------------------------
    @property
    def nugget(self) -> float:
        """Diagonal regulariser of the training covariance: ``noise ** 2``."""
        return self.noise**2

    def kernel_function(self, points: np.ndarray):
        """The covariance :class:`~repro.geometry.KernelFunction` over ``points``."""
        return make_kernel(
            self.kernel, points, length=self.length, signal=self.signal, nugget=self.nugget
        )

    # -- training -------------------------------------------------------------
    def fit(self, x: np.ndarray, y: np.ndarray) -> "GPModel":
        """Assemble + H-Cholesky-factorise the covariance of ``x`` (in place).

        Runs on whatever executor ``config`` selects; the factorisation DAG
        lands in ``info_`` (``info_.graph``) for simulation/rendering.
        """
        x, y = _check_data(x, y)
        kern = self.kernel_function(x)
        solver, info = TileHMatrix.build_factorize(kern, x, self.config, method="cholesky")
        self._attach(solver, x, y)
        self.info_ = info
        return self

    def _attach(self, solver: TileHMatrix, x, y) -> None:
        self.x_, self.y_ = _check_data(x, y, solver.desc.n)
        self.solver_ = solver
        self.kern_ = self.kernel_function(self.x_)

    def _require_fit(self) -> TileHMatrix:
        if self.solver_ is None:
            raise RuntimeError("call fit() (or load()) before predicting")
        return self.solver_

    def _check_test(self, x_test) -> np.ndarray:
        """``x_test`` as contiguous float64 ``(m, dim)`` points of a fitted model."""
        self._require_fit()
        x_test = np.ascontiguousarray(np.asarray(x_test, dtype=np.float64))
        dim = self.x_.shape[1]
        if x_test.ndim != 2 or x_test.shape[1] != dim:
            raise ValueError(f"x_test must be (m, {dim}) coordinates, got shape {x_test.shape}")
        return x_test

    # -- prediction -----------------------------------------------------------
    def predict(self, x_test: np.ndarray) -> GPPredictResult:
        """Posterior mean and predictive variance at ``x_test``: one panel
        solve of the cross-covariance, folded by :func:`_posterior`."""
        x_test = self._check_test(x_test)
        ks = self.kern_(self.x_, x_test)
        return _posterior(self.kern_, ks, self.y_, x_test, self.solver_.solve(ks))

    def predict_pcg(
        self,
        x_test: np.ndarray,
        *,
        rtol: float = 1e-10,
        max_iter: int = 500,
    ):
        """Posterior mean via preconditioned CG against the *exact* covariance.

        ``alpha = K^{-1} y`` is solved matrix-free (streamed dense operator —
        the kernel's nugget convention puts ``s_n^2`` on the diagonal, so the
        operator is exactly the training covariance) with the loose
        H-Cholesky as preconditioner, then ``mean = K_*^T alpha``.  Returns
        ``(mean, KrylovResult)``; the iteration count measures the
        preconditioner's quality at the configured ACA tolerance.
        """
        x_test = self._check_test(x_test)
        kern = self.kern_
        x = self.x_
        result = pcg(
            lambda v: streamed_matvec(kern, x, v),
            self.y_,
            precond=self.solver_.solve,
            rtol=rtol,
            max_iter=max_iter,
        )
        mean = kern(x_test, x) @ result.x
        return mean, result

    # -- persistence ----------------------------------------------------------
    def save(self, path, *, compress: bool = True) -> None:
        """Persist the trained factors (the expensive state) to ``path``.

        The training data and hyperparameters are *not* stored — they are
        cheap and deterministic on the client (spec-driven geometry +
        seeded targets); :meth:`load` reattaches them.  ``compress`` no
        longer selects anything (see :meth:`TileHMatrix.save`).
        """
        self._require_fit().save(path, compress=compress)

    @classmethod
    def load(
        cls,
        path,
        x: np.ndarray,
        y: np.ndarray,
        *,
        kernel: str = "sqexp",
        length: float = 0.25,
        signal: float = 1.0,
        noise: float = 0.1,
        mmap: bool = False,
        config: TileHConfig | None = None,
    ) -> "GPModel":
        """Rebuild a trained model from factors saved by :meth:`save`.

        ``x``/``y`` and the hyperparameters must match the fitting call
        (``x`` not ``(n, dim)`` for the factor's ``n``, or ``y`` not
        ``(n,)``, is a ``ValueError``); ``mmap=True`` maps the archive read-only instead of reading it
        (zero-copy warm start).  Predictions are bit-identical to the
        pre-save model either way.
        """
        model = cls(kernel, length=length, signal=signal, noise=noise, config=config)
        solver = TileHMatrix.load(path, config, mmap=mmap)
        model.config = solver.config
        model._attach(solver, x, y)
        return model
