"""GP regression driven by the tiled H-Cholesky task graphs.

Training factorises the H-compressed covariance ``K = K_f(X, X) + s_n^2 I``
with :meth:`~repro.core.TileHMatrix.build_factorize` (``method="cholesky"``)
— assembly and factorisation fuse into one DAG under ``exec_mode="threaded"``
/ ``"process"``, nested tile expansion included.  Prediction is its own fused
task graph built from three kinds:

``gp-assemble``
    one task per train tile writes that tile's rows of the permuted
    cross-covariance panel ``K_* = K(X, X_*)`` (two copies: one is consumed
    by the solve sweep, one survives for the variance reduction);
``gemm`` / ``trsm``
    the forward/backward substitution tasks of
    :func:`~repro.core.algorithms.submit_sweep_tasks` (the factor's compiled
    sweep, one task per tile-op) turn the panel into ``V = K^{-1} K_*`` in
    place;
``gp-predict``
    one reduction task per train tile accumulates its contribution to the
    posterior mean ``K_*^T K^{-1} y = V^T y`` and to the explained variance
    ``diag(K_*^T K^{-1} K_*) = colsum(K_* . V)``.

The reduction tasks all hold the accumulator handle RW, so STF serialises
them in submission order — eager and threaded runs are bit-identical (the
predict graph of a ``process``-mode model runs on worker *threads*: its
assemble/reduce closures are not process-shippable, and threaded execution
is bit-identical anyway).

:meth:`GPModel.predict_pcg` is the Krylov path: a *loose* (cheap) H-Cholesky
preconditions :func:`~repro.core.pcg` against the exact streamed covariance
operator, recovering tight posterior means without a tight factorisation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import TileHConfig, TileHMatrix, pcg
from ..core.algorithms import submit_sweep_tasks
from ..geometry import GP_KERNELS, make_kernel
from ..geometry.assembly import streamed_matvec
from ..runtime import AccessMode, StfEngine, ThreadedExecutor

__all__ = ["GPModel", "GPPredictResult"]

R, RW = AccessMode.R, AccessMode.RW


@dataclass
class GPPredictResult:
    """Posterior at the test points plus the graph that computed it.

    ``var`` is the *predictive* variance (latent variance plus the noise
    nugget: the kernel's diagonal convention includes ``s_n^2``), clipped at
    zero against compression round-off.  ``seconds`` is the executor wall
    time for deferred runs, None when the graph ran eagerly at submission.
    """

    mean: np.ndarray
    var: np.ndarray
    graph: object
    seconds: float | None = None

    def __iter__(self):  # allow ``mean, var = model.predict(xs)`` unpacking
        yield self.mean
        yield self.var


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
        x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
        y = np.ascontiguousarray(np.asarray(y, dtype=np.float64))
        if x.ndim != 2:
            raise ValueError(f"x must be (n, dim) coordinates, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise ValueError(f"y must have shape ({x.shape[0]},), got {y.shape}")
        kern = self.kernel_function(x)
        solver, info = TileHMatrix.build_factorize(kern, x, self.config, method="cholesky")
        self._attach(solver, x, y)
        self.info_ = info
        return self

    def _attach(self, solver: TileHMatrix, x: np.ndarray, y: np.ndarray) -> None:
        self.solver_ = solver
        self.x_ = x
        self.y_ = y
        self.kern_ = self.kernel_function(x)

    def _require_fit(self) -> TileHMatrix:
        if self.solver_ is None:
            raise RuntimeError("call fit() (or load()) before predicting")
        return self.solver_

    # -- prediction -----------------------------------------------------------
    def predict(self, x_test: np.ndarray) -> GPPredictResult:
        """Posterior mean and predictive variance at ``x_test`` as one DAG."""
        solver = self._require_fit()
        x_test = np.ascontiguousarray(np.asarray(x_test, dtype=np.float64))
        if x_test.ndim != 2 or x_test.shape[1] != self.x_.shape[1]:
            raise ValueError(
                f"x_test must be (m, {self.x_.shape[1]}) coordinates, got shape {x_test.shape}"
            )
        desc = solver.desc
        grid = desc.super
        nt = desc.nt
        m = x_test.shape[0]
        cfg = solver.config
        deferred = cfg.exec_mode in ("threaded", "process")
        if deferred:
            eng = StfEngine(mode="deferred")
        else:
            eng = StfEngine(mode="eager", racecheck=cfg.racecheck)

        program = solver.sweep_program()
        x_perm = self.x_[desc.perm]
        y_perm = np.ascontiguousarray(self.y_[desc.perm])
        ks = np.empty((desc.n, m), dtype=np.float64)  # cross-covariance K_* (permuted rows)
        # Solve buffer -> V = K^{-1} K_*, in the sweep interpreter's layout
        # (one contiguous row per test point).
        work = program.empty(m, np.float64)
        acc = np.zeros((2, m), dtype=np.float64)  # rows: mean, explained variance
        ks_segs = [ks[desc.tile_slice(k)] for k in range(nt)]
        wk_segs = [program.segment(work, k) for k in range(nt)]
        ks_handles = [eng.handle(ks_segs[k], f"ks[{k}]") for k in range(nt)]
        wk_handles = [eng.handle(wk_segs[k], f"v[{k}]") for k in range(nt)]
        acc_handle = eng.handle(acc, "gp_acc")
        kern = self.kern_

        def assemble(k):
            block = kern(x_perm[desc.tile_slice(k)], x_test)
            ks_segs[k][...] = block
            wk_segs[k][...] = block.T

        def reduce_tile(k):
            # The reductions' bits depend on their operands' layout: hand them
            # the (rows, m) C-ordered block they have always had.
            v = np.array(np.atleast_2d(wk_segs[k]).T, order="C")
            acc[0] += v.T @ y_perm[desc.tile_slice(k)]
            acc[1] += np.einsum("ij,ij->j", ks_segs[k], v)

        # Cross-covariance panel assembly: ready immediately, highest first so
        # the forward sweep can start at tile 0 while late tiles assemble.
        for k in range(nt):
            rows = grid.tile_rows(k)
            eng.insert_task(
                "gp-assemble",
                (lambda k=k: assemble(k)),
                [(ks_handles[k], RW), (wk_handles[k], RW)],
                priority=10 * nt - k,
                flops=float(8 * rows * m),
                label=f"gp_assemble({k})",
            )
        submit_sweep_tasks(eng, program, work, wk_handles)
        for k in range(nt):
            rows = grid.tile_rows(k)
            eng.insert_task(
                "gp-predict",
                (lambda k=k: reduce_tile(k)),
                [(wk_handles[k], R), (ks_handles[k], R), (acc_handle, RW)],
                flops=float(4 * rows * m),
                label=f"gp_predict({k})",
            )
        graph = eng.wait_all()
        seconds = None
        if deferred:
            executor = ThreadedExecutor(
                cfg.nworkers, scheduler=cfg.scheduler, interpreter_bound=True
            )
            seconds = executor.run(graph)

        mean = acc[0].copy()
        var = np.clip(kern.diag(x_test) - acc[1], 0.0, None)
        return GPPredictResult(mean=mean, var=var, graph=graph, seconds=seconds)

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
        solver = self._require_fit()
        x_test = np.ascontiguousarray(np.asarray(x_test, dtype=np.float64))
        kern = self.kern_
        x = self.x_
        result = pcg(
            lambda v: streamed_matvec(kern, x, v),
            self.y_,
            precond=solver.solve,
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

        ``x``/``y`` and the hyperparameters must match the fitting call;
        ``mmap=True`` maps the archive read-only instead of reading it
        (zero-copy warm start).  Predictions are bit-identical to the
        pre-save model either way.
        """
        model = cls(kernel, length=length, signal=signal, noise=noise, config=config)
        solver = TileHMatrix.load(path, config, mmap=mmap)
        model.config = solver.config
        model._attach(
            solver,
            np.ascontiguousarray(np.asarray(x, dtype=np.float64)),
            np.ascontiguousarray(np.asarray(y, dtype=np.float64)),
        )
        return model
