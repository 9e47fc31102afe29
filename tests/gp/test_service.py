"""``kind="gp"`` specs through the solve service.

A GP prediction is an ordinary solve request whose right-hand side is the
test point's cross-covariance column, so the whole serving stack — admission,
micro-batching, the factorization store, warm mmap loads — works unchanged.
These tests also pin fingerprint stability: adding the GP fields must not
move any existing ``kind="solve"`` fingerprint (stores in the wild stay
valid).
"""

import numpy as np
import pytest

from repro.core import TileHConfig
from repro.gp import GPModel, synthetic_gp_data
from repro.gp.model import _posterior
from repro.service import (
    FactorizationStore,
    ProblemSpec,
    SolveService,
    build_solver,
    spec_fingerprint,
)
from repro.service.errors import BadRequestError
from repro.service.problems import check_rhs, rhs_dtype

N, M, NB = 300, 24, 100

HYPERS = dict(length=0.4, signal=1.0, noise=0.05)


def _gp_spec(**overrides):
    base = dict(kernel="sqexp", n=N, kind="gp", nb=NB, eps=1e-8, leaf_size=40, **HYPERS)
    base.update(overrides)
    return ProblemSpec.from_dict(base)


class TestFingerprintStability:
    # Captured before the GP fields existed: kind="solve" canonical forms —
    # and therefore store keys — must never move.
    def test_solve_fingerprints_unchanged(self):
        assert spec_fingerprint(ProblemSpec(kernel="laplace", n=256)) == (
            "0f5fcfc35655c704cc809467ca54b1e2d38059df2e6ecd1dbe1f2088cd147ea8"
        )
        assert spec_fingerprint(
            ProblemSpec(kernel="helmholtz", n=512, geometry="sphere",
                        nb=128, eps=1e-4, method="lu")
        ) == "1fc43b0f27fcd2bf10a67fd72f21fd460496f5bd6b1cf570be7262f2ba868da4"

    def test_solve_canonical_has_no_gp_keys(self):
        spec = ProblemSpec(kernel="laplace", n=256)
        assert set(spec.canonical()) == {
            "geometry", "kernel", "n", "nb", "eps", "leaf_size", "method"
        }

    def test_gp_defaults_spelled_out_do_not_move_fingerprint(self):
        implicit = ProblemSpec(kernel="sqexp", n=256, kind="gp")
        explicit = ProblemSpec(kernel="sqexp", n=256, kind="gp",
                               length=0.25, signal=1.0, noise=0.1, method="lu")
        assert spec_fingerprint(implicit) == spec_fingerprint(explicit)

    def test_hyperparameters_key_the_store(self):
        a = _gp_spec()
        b = _gp_spec(length=0.5)
        assert spec_fingerprint(a) != spec_fingerprint(b)


class TestValidation:
    def test_gp_requires_gp_kernel(self):
        with pytest.raises(BadRequestError):
            ProblemSpec(kernel="laplace", n=64, kind="gp")

    def test_gp_kernel_needs_gp_kind(self):
        with pytest.raises(BadRequestError):
            ProblemSpec(kernel="sqexp", n=64)

    def test_gp_fields_rejected_on_solve_specs(self):
        with pytest.raises(BadRequestError):
            ProblemSpec(kernel="laplace", n=64, length=0.3)

    def test_bad_hyperparameters_rejected(self):
        for field in ("length", "signal", "noise"):
            with pytest.raises(BadRequestError):
                _gp_spec(**{field: -1.0})

    def test_unknown_kind_rejected(self):
        with pytest.raises(BadRequestError):
            ProblemSpec(kernel="laplace", n=64, kind="nope")

    def test_method_coerced_to_cholesky(self):
        spec = _gp_spec(method="lu")
        assert spec.method == "cholesky"
        assert spec.canonical()["method"] == "cholesky"

    def test_round_trips_from_dict(self):
        spec = _gp_spec()
        clone = ProblemSpec.from_dict(spec.canonical())
        assert spec_fingerprint(clone) == spec_fingerprint(spec)

    def test_rhs_is_real(self):
        spec = _gp_spec()
        assert rhs_dtype(spec) == np.float64
        assert check_rhs(spec, np.ones(N)).dtype == np.float64


class TestServedPredictions:
    @pytest.fixture(scope="class")
    def problem(self):
        return synthetic_gp_data(N, M, geometry="cylinder", noise=HYPERS["noise"], seed=7)

    def _posterior_via_service(self, service, spec, kern, x, y, x_test, timeout=120.0):
        ks = kern(x, x_test)
        tickets = [service.submit(spec, ks[:, j]) for j in range(x_test.shape[0])]
        v = np.column_stack([t.result(timeout=timeout) for t in tickets])
        return _posterior(kern, ks, y, x_test, v)

    def test_batched_predictions_match_direct_model(self, problem):
        x, y, x_test, _ = problem
        spec = _gp_spec()
        cfg = TileHConfig(nb=NB, eps=1e-8, leaf_size=40)
        model = GPModel("sqexp", **HYPERS, config=cfg).fit(x, y)
        direct = model.predict(x_test)

        service = SolveService(FactorizationStore(), workers=2, max_queue=M + 8,
                               max_batch=8, max_delay=0.05)
        try:
            kern = model.kernel_function(x)
            mean, var = self._posterior_via_service(service, spec, kern, x, y, x_test)
        finally:
            service.close()
        # One fold over bit-identical columns: served == in-process.
        assert np.array_equal(mean, direct.mean)
        assert np.array_equal(var, direct.var)
        batch = service.stats()["batch_size"]
        assert batch["count"] < M, "predictions never coalesced into panels"
        assert batch["mean"] > 1.0

    def test_store_round_trip_warm_mmap_predictions(self, problem, tmp_path):
        x, y, x_test, _ = problem
        spec = _gp_spec()
        key = spec_fingerprint(spec)

        # Cold train into an mmap-configured store.
        cold_store = FactorizationStore(tmp_path, mmap=True)
        cold_store.get_or_build(key, lambda: build_solver(spec))
        assert key in cold_store.keys()

        kern = GPModel("sqexp", **HYPERS).kernel_function(x)
        cold = SolveService(cold_store, workers=1, max_queue=M + 8, max_batch=8,
                            max_delay=0.05)
        try:
            mean_c, var_c = self._posterior_via_service(cold, spec, kern, x, y, x_test)
        finally:
            cold.close()

        # Fresh process-equivalent: new store over the same directory, memory
        # empty, so the first request mmap-loads the persisted factors.
        warm_store = FactorizationStore(tmp_path, mmap=True)
        warm = SolveService(warm_store, workers=1, max_queue=M + 8, max_batch=8,
                            max_delay=0.05)
        try:
            mean_w, var_w = self._posterior_via_service(warm, spec, kern, x, y, x_test)
        finally:
            warm.close()
        stats = warm_store.stats()
        assert stats["misses"] == 0, "warm service should never rebuild"
        assert stats["hits"] >= 1
        np.testing.assert_allclose(mean_w, mean_c, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(var_w, var_c, rtol=1e-10, atol=1e-12)
