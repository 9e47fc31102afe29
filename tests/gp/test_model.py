"""GPModel exactness against the dense NumPy reference + executor equivalence.

The H-compressed posterior must track the ACA tolerance (mean relative
error <= 10x eps), eager and threaded fits must agree bit for bit under the
default config and a process fit with an ``accumulate=False`` eager one (a
prediction is one replay of the factor's compiled sweep, whatever the
``exec_mode``), factor archives must round-trip, and data that does not
match the factor must be refused up front.
"""

import numpy as np
import pytest

import repro.core.solver as solver_module
from repro.core import TileHConfig
from repro.geometry.assembly import assemble_dense
from repro.gp import GPModel, synthetic_gp_data

N, M, NB = 400, 32, 100

HYPERS = dict(length=0.4, signal=1.1, noise=0.05)


@pytest.fixture(scope="module")
def data():
    return synthetic_gp_data(N, M, geometry="cylinder", noise=HYPERS["noise"], seed=3)


def _fit(data, *, eps=1e-10, kernel="sqexp", **cfg_kw):
    x, y, _, _ = data
    cfg = TileHConfig(nb=NB, eps=eps, leaf_size=40, **cfg_kw)
    return GPModel(kernel, **HYPERS, config=cfg).fit(x, y)


def _dense_reference(model, x, y, x_test):
    kern = model.kernel_function(x)
    k = assemble_dense(kern, x)
    ks = kern(x, x_test)
    mean = ks.T @ np.linalg.solve(k, y)
    var = kern.diag(x_test) - np.einsum("ij,ij->j", ks, np.linalg.solve(k, ks))
    return mean, var


class TestExactness:
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-8])
    def test_posterior_mean_error_tracks_aca_tolerance(self, data, eps):
        x, y, x_test, _ = data
        model = _fit(data, eps=eps)
        mean, var = model.predict(x_test)
        ref_mean, ref_var = _dense_reference(model, x, y, x_test)
        rel = np.linalg.norm(mean - ref_mean) / np.linalg.norm(ref_mean)
        assert rel <= 10 * eps, f"mean rel err {rel:.2e} vs eps {eps:g}"
        assert np.max(np.abs(var - ref_var)) <= 10 * eps * np.max(np.abs(ref_var))

    @pytest.mark.parametrize("kernel", ["matern12", "matern32", "matern52"])
    def test_matern_family_matches_dense(self, data, kernel):
        x, y, x_test, _ = data
        model = _fit(data, kernel=kernel)
        mean, _ = model.predict(x_test)
        ref_mean, _ = _dense_reference(model, x, y, x_test)
        assert np.linalg.norm(mean - ref_mean) <= 1e-8 * np.linalg.norm(ref_mean)

    def test_variance_bounds(self, data):
        _, _, x_test, _ = data
        model = _fit(data)
        _, var = model.predict(x_test)
        prior = HYPERS["signal"] ** 2 + HYPERS["noise"] ** 2
        assert np.all(var >= 0.0)
        assert np.all(var <= prior + 1e-12)  # conditioning cannot add variance

    def test_mean_recovers_latent_function(self, data):
        _, _, x_test, f_test = data
        mean, _ = _fit(data).predict(x_test)
        rmse = float(np.sqrt(np.mean((mean - f_test) ** 2)))
        assert rmse < 3 * HYPERS["noise"]


class TestExecutorEquivalence:
    def test_threaded_bit_identical_to_eager(self, data):
        _, _, x_test, _ = data
        r_e = _fit(data).predict(x_test)
        r_t = _fit(data, exec_mode="threaded", nworkers=2, scheduler="lws").predict(x_test)
        assert np.array_equal(r_e.mean, r_t.mean)
        assert np.array_equal(r_e.var, r_t.var)

    def test_process_trained_model_bit_identical_to_eager(self, data):
        _, _, x_test, _ = data
        r_e = _fit(data, accumulate=False).predict(x_test)
        r_p = _fit(data, accumulate=False, exec_mode="process", nworkers=2).predict(x_test)
        assert np.array_equal(r_e.mean, r_p.mean)
        assert np.array_equal(r_e.var, r_p.var)

    def test_racecheck_clean(self, data, monkeypatch):
        _, _, x_test, _ = data
        model = _fit(data, racecheck=True)
        audited = []
        real = solver_module.sweep_solve_tasks

        def spy(program, b, engine=None, **kw):
            x, graph = real(program, b, engine, **kw)
            audited.append((engine is not None and engine.racecheck is not None, len(graph.tasks)))
            return x, graph

        monkeypatch.setattr(solver_module, "sweep_solve_tasks", spy)
        r = model.predict(x_test)  # raises on a violation
        assert np.all(np.isfinite(r.mean))
        nt = model.solver_.desc.nt
        assert audited == [(True, nt * (nt + 1))]  # the sweep ran under the detector


class TestRoundTrip:
    def test_compressed_archive_round_trips_bitwise(self, data, tmp_path):
        x, y, x_test, _ = data
        model = _fit(data)
        ref = model.predict(x_test)
        path = tmp_path / "gp.tileh"
        model.save(path)
        loaded = GPModel.load(path, x, y, kernel="sqexp", **HYPERS)
        out = loaded.predict(x_test)
        assert np.array_equal(out.mean, ref.mean)
        assert np.array_equal(out.var, ref.var)

    def test_mmap_archive_round_trips_bitwise(self, data, tmp_path):
        x, y, x_test, _ = data
        model = _fit(data)
        ref = model.predict(x_test)
        path = tmp_path / "gp_raw.tileh"
        model.save(path, compress=False)
        loaded = GPModel.load(path, x, y, kernel="sqexp", **HYPERS, mmap=True)
        out = loaded.predict(x_test)
        # Same factor bytes at the same alignment mod 64: the same bits.
        assert np.array_equal(out.mean, ref.mean)
        assert np.array_equal(out.var, ref.var)


class TestPcg:
    def test_loose_factors_precondition_to_tight_mean(self, data):
        x, y, x_test, _ = data
        model = _fit(data, eps=1e-2)  # cheap, loose factorisation
        ref_mean, _ = _dense_reference(model, x, y, x_test)
        mean, result = model.predict_pcg(x_test, rtol=1e-12)
        assert result.converged
        assert 0 < result.iterations < 30  # the preconditioner must bite
        rel = np.linalg.norm(mean - ref_mean) / np.linalg.norm(ref_mean)
        assert rel < 1e-8, f"pcg-refined mean rel err {rel:.2e}"

    def test_pcg_beats_direct_at_loose_tolerance(self, data):
        x, y, x_test, _ = data
        model = _fit(data, eps=1e-2)
        ref_mean, _ = _dense_reference(model, x, y, x_test)
        direct, _ = model.predict(x_test)
        refined, _ = model.predict_pcg(x_test, rtol=1e-12)
        err_direct = np.linalg.norm(direct - ref_mean)
        err_refined = np.linalg.norm(refined - ref_mean)
        assert err_refined < err_direct


class TestValidation:
    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            GPModel("laplace")

    def test_zero_noise_rejected(self):
        with pytest.raises(ValueError):
            GPModel("sqexp", noise=0.0)

    def test_predict_before_fit_rejected(self, data):
        _, _, x_test, _ = data
        with pytest.raises(RuntimeError):
            GPModel("sqexp").predict(x_test)

    def test_shape_mismatches_rejected(self, data):
        x, y, x_test, _ = data
        with pytest.raises(ValueError):
            GPModel("sqexp").fit(x, y[:-1])
        model = _fit(data)
        with pytest.raises(ValueError):
            model.predict(x_test[:, :2])
        with pytest.raises(ValueError, match="x_test"):
            model.predict_pcg(x_test[:, :2])


class TestLoadRejectsMismatchedData:
    """``load`` reattaches caller-supplied data to a saved factor: data of
    another size used to load and die in the first ``predict``."""

    @pytest.fixture(scope="class")
    def archive(self, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("gp-load") / "gp.tileh"
        _fit(data).save(path)
        return path

    def test_too_few_points(self, data, archive):
        x, y, _, _ = data
        with pytest.raises(ValueError, match=f"{N - 20} points but the factor has {N}"):
            GPModel.load(archive, x[:-20], y[:-20], **HYPERS)

    def test_targets_one_short(self, data, archive):
        x, y, _, _ = data
        with pytest.raises(ValueError, match=rf"y must have shape \({N},\)"):
            GPModel.load(archive, x, y[:-1], **HYPERS)

    def test_one_dimensional_points(self, data, archive):
        x, y, _, _ = data
        with pytest.raises(ValueError, match="x must be"):
            GPModel.load(archive, x[:, 0], y, **HYPERS)
