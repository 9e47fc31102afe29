"""Problem specs: the deterministic request -> operator mapping.

A service request does not ship a matrix — it names a *problem spec*: the
geometry, kernel, and solver configuration that deterministically reconstruct
the operator on any replica (the same construction the CLI test harness
uses).  The spec's canonical JSON is hashed into the content-addressed
**fingerprint** that keys the :class:`~repro.service.store.FactorizationStore`:
two requests agree on the fingerprint iff they solve against the same
factorization, which is exactly the coalescing condition of the
micro-batcher.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from ..core import FACTOR_METHODS, TileHConfig, TileHMatrix, default_nb
from ..geometry import GEOMETRIES, GP_KERNELS, SOLVE_KERNELS, make_kernel
from ..obs.tracing import current_trace

__all__ = ["ProblemSpec", "spec_fingerprint", "build_solver", "rhs_dtype", "check_rhs"]

from .errors import BadRequestError

_KINDS = ("solve", "gp")

#: Hyperparameter defaults applied to ``kind="gp"`` specs (kept in one place
#: so the canonical form — and therefore the fingerprint — never depends on
#: whether the client spelled the defaults out).
_GP_DEFAULTS = {"length": 0.25, "signal": 1.0, "noise": 0.1}


@dataclass(frozen=True)
class ProblemSpec:
    """One solvable problem, reproducible from scalars only.

    ``geometry``/``n`` fix the point cloud, ``kernel`` the interaction, and
    ``nb``/``eps``/``leaf_size``/``method`` the Tile-H solver that factors
    it.  Everything is validated eagerly so malformed requests fail at the
    admission boundary, not inside a worker.

    ``kind="gp"`` names a Gaussian-process regression problem instead of a
    BEM solve: ``kernel`` must be a GP covariance
    (:data:`~repro.geometry.GP_KERNELS`), ``length``/``signal``/``noise``
    are its hyperparameters (defaulted from ``_GP_DEFAULTS`` when omitted,
    so spelling the defaults out does not change the fingerprint), and the
    factorisation method is always the Cholesky — covariances are SPD, so a
    requested ``method="lu"`` (the dataclass default) is coerced.  A GP
    *training* run is exactly the cold factorisation of this spec into the
    store; each *prediction* is one solve request whose right-hand side is
    the test point's cross-covariance column, which is why GP serving needs
    no new service surface at all.
    """

    kernel: str
    n: int
    geometry: str = "cylinder"
    nb: int | None = None
    eps: float = 1e-6
    leaf_size: int = 64
    method: str = "lu"
    kind: str = "solve"
    length: float | None = None
    signal: float | None = None
    noise: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise BadRequestError(f"unknown kind {self.kind!r}; choose from {_KINDS}")
        if self.kind == "gp":
            if self.kernel not in GP_KERNELS:
                raise BadRequestError(
                    f"kind='gp' needs a GP covariance kernel, got {self.kernel!r}; "
                    f"choose from {GP_KERNELS}"
                )
            object.__setattr__(self, "method", "cholesky")
            for name, default in _GP_DEFAULTS.items():
                value = getattr(self, name)
                if value is None:
                    object.__setattr__(self, name, default)
                elif not (isinstance(value, (int, float)) and value > 0 and math.isfinite(value)):
                    raise BadRequestError(f"{name} must be a positive number, got {value!r}")
                else:
                    object.__setattr__(self, name, float(value))
        else:
            if self.kernel not in SOLVE_KERNELS:
                raise BadRequestError(
                    f"unknown kernel {self.kernel!r}; choose from {SOLVE_KERNELS}"
                )
            for name in _GP_DEFAULTS:
                if getattr(self, name) is not None:
                    raise BadRequestError(f"{name} only applies to kind='gp' specs")
        if self.geometry not in GEOMETRIES:
            raise BadRequestError(
                f"unknown geometry {self.geometry!r}; choose from {tuple(GEOMETRIES)}"
            )
        if self.method not in FACTOR_METHODS:
            raise BadRequestError(
                f"unknown method {self.method!r}; choose from {FACTOR_METHODS}"
            )
        if not isinstance(self.n, int) or self.n < 2:
            raise BadRequestError(f"n must be an integer >= 2, got {self.n!r}")
        if self.nb is not None and (not isinstance(self.nb, int) or self.nb < 1):
            raise BadRequestError(f"nb must be a positive integer, got {self.nb!r}")
        if not (self.eps > 0 and math.isfinite(self.eps)):
            raise BadRequestError(f"eps must be positive, got {self.eps!r}")
        if not isinstance(self.leaf_size, int) or self.leaf_size < 1:
            raise BadRequestError(f"leaf_size must be a positive integer, got {self.leaf_size!r}")

    @property
    def effective_nb(self) -> int:
        return self.nb if self.nb is not None else default_nb(self.n)

    def canonical(self) -> dict:
        """The canonical JSON-able form that is hashed into the fingerprint.

        ``kind="solve"`` specs keep the historical seven-key form exactly
        (fingerprints of existing stores stay valid); GP specs add ``kind``
        plus the resolved hyperparameters.
        """
        base = {
            "geometry": self.geometry,
            "kernel": self.kernel,
            "n": self.n,
            "nb": self.effective_nb,
            "eps": self.eps,
            "leaf_size": self.leaf_size,
            "method": self.method,
        }
        if self.kind == "gp":
            base["kind"] = self.kind
            base["length"] = self.length
            base["signal"] = self.signal
            base["noise"] = self.noise
        return base

    @classmethod
    def from_dict(cls, data: dict) -> "ProblemSpec":
        if not isinstance(data, dict):
            raise BadRequestError(f"problem spec must be an object, got {type(data).__name__}")
        allowed = {
            "kernel", "n", "geometry", "nb", "eps", "leaf_size", "method",
            "kind", "length", "signal", "noise",
        }
        extra = set(data) - allowed
        if extra:
            raise BadRequestError(f"unknown problem-spec fields {sorted(extra)}")
        if "kernel" not in data or "n" not in data:
            raise BadRequestError("problem spec needs at least 'kernel' and 'n'")
        return cls(**data)


def spec_fingerprint(spec: ProblemSpec) -> str:
    """Content-addressed key: SHA-256 of the spec's canonical JSON.

    Stable across processes and replicas — the factorization store and the
    micro-batcher both key on it.
    """
    blob = json.dumps(spec.canonical(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def build_solver(spec: ProblemSpec) -> TileHMatrix:
    """Deterministically build *and factorize* the spec's Tile-H solver.

    This is the expensive cold-start path; the factorization store exists to
    make it run once per fingerprint.  It always runs the default
    :class:`~repro.core.TileHConfig` of the spec (the eager executor), so one
    fingerprint names one set of factor bits wherever it is built.
    """
    points = GEOMETRIES[spec.geometry](spec.n)
    if spec.kind == "gp":
        kernel = make_kernel(
            spec.kernel, points,
            length=spec.length, signal=spec.signal, nugget=spec.noise**2,
        )
    else:
        kernel = make_kernel(spec.kernel, points)
    config = TileHConfig(nb=spec.effective_nb, eps=spec.eps, leaf_size=spec.leaf_size)
    ctx = current_trace()
    t0 = time.perf_counter()
    solver, _ = TileHMatrix.build_factorize(kernel, points, config, method=spec.method)
    if ctx is not None:
        ctx.add_span("factorize", t0, time.perf_counter(), method=spec.method)
    return solver


def rhs_dtype(spec: ProblemSpec) -> np.dtype:
    """The dtype solutions come back in (complex for oscillatory kernels)."""
    return np.dtype(np.complex128 if spec.kernel == "helmholtz" else np.float64)


def check_rhs(spec: ProblemSpec, rhs) -> np.ndarray:
    """Validate one right-hand side against ``spec``; returns the cast array.

    Shared by every admission boundary (service, fleet, HTTP) so malformed
    requests fail synchronously with :class:`BadRequestError` before they
    can occupy a queue slot anywhere.
    """
    b = np.asarray(rhs)
    if b.ndim != 1:
        raise BadRequestError(f"rhs must be 1-D, got shape {b.shape}")
    if b.shape[0] != spec.n:
        raise BadRequestError(f"rhs has length {b.shape[0]}, expected n={spec.n}")
    dtype = rhs_dtype(spec)
    if not np.can_cast(b.dtype, dtype):
        raise BadRequestError(f"rhs dtype {b.dtype} not castable to {dtype}")
    b = b.astype(dtype, copy=False)
    if not np.all(np.isfinite(b)):
        raise BadRequestError("rhs contains non-finite entries")
    return b
