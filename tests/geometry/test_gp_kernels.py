"""GP covariance kernels: exact diagonals, SPD-ness, closed forms.

The diag contract is load-bearing for the GP subsystem: the predictive
variance is ``k.diag(x*) - colsum(K_* . V)``, and training covariances get
their nugget *only* through exact zero distances — so for EVERY registered
kernel, ``k(x, x).diagonal()`` must equal ``k.diag(x)`` bit for bit.
"""

import pickle

import numpy as np
import pytest

from repro.geometry import GP_KERNELS, cylinder_cloud, make_kernel
from repro.geometry.kernels import _FACTORIES

PTS = cylinder_cloud(150)

GP_PARAMS = {"length": 0.3, "signal": 1.2, "nugget": 1e-4}


def _kernel(name):
    return make_kernel(name, PTS, **(GP_PARAMS if name in GP_KERNELS else {}))


class TestDiagExactness:
    @pytest.mark.parametrize("name", sorted(_FACTORIES))
    def test_diag_matches_dense_diagonal_bitwise(self, name):
        kern = _kernel(name)
        assert np.array_equal(kern(PTS, PTS).diagonal(), kern.diag(PTS))

    @pytest.mark.parametrize("name", GP_KERNELS)
    def test_gp_prior_variance_is_signal2_plus_nugget(self, name):
        kern = _kernel(name)
        expected = GP_PARAMS["signal"] ** 2 + GP_PARAMS["nugget"]
        assert np.allclose(kern.diag(PTS), expected)

    @pytest.mark.parametrize("name", GP_KERNELS)
    def test_nugget_only_at_zero_distance(self, name):
        kern = _kernel(name)
        block = kern(PTS[:50], PTS[50:100])  # disjoint point sets
        assert np.all(block < GP_PARAMS["signal"] ** 2)  # no nugget off-site


class TestSPD:
    @pytest.mark.parametrize("name", GP_KERNELS)
    def test_covariance_is_spd(self, name):
        kern = _kernel(name)
        k = kern(PTS, PTS)
        assert np.array_equal(k, k.T)
        assert np.linalg.eigvalsh(k).min() > 0


class TestClosedForms:
    # Two points exactly d = 0.3 apart; u = d / length = 1.
    X = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.0]])

    def _offdiag(self, name, **params):
        kern = make_kernel(name, self.X, length=0.3, signal=2.0, nugget=1e-3, **params)
        return kern(self.X, self.X)[0, 1]

    def test_sqexp(self):
        assert np.isclose(self._offdiag("sqexp"), 4.0 * np.exp(-0.5))

    def test_matern12(self):
        assert np.isclose(self._offdiag("matern12"), 4.0 * np.exp(-1.0))

    def test_matern32(self):
        s3 = np.sqrt(3.0)
        assert np.isclose(self._offdiag("matern32"), 4.0 * (1 + s3) * np.exp(-s3))

    def test_matern52(self):
        s5 = np.sqrt(5.0)
        assert np.isclose(
            self._offdiag("matern52"), 4.0 * (1 + s5 + 5.0 / 3.0) * np.exp(-s5)
        )


class TestValidation:
    def test_bad_hyperparameters_rejected(self):
        for bad in (dict(length=0.0), dict(signal=-1.0), dict(nugget=-1e-6)):
            with pytest.raises(ValueError):
                make_kernel("sqexp", PTS, **bad)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["length", "signal", "nugget"])
    def test_non_finite_hyperparameters_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            make_kernel("sqexp", PTS, **{name: value})

    def test_unknown_matern_smoothness_rejected(self):
        with pytest.raises(ValueError):
            from repro.geometry import matern_kernel

            matern_kernel(PTS, nu=2.0)

    def test_conflicting_nu_rejected(self):
        with pytest.raises(ValueError):
            make_kernel("matern32", PTS, nu=0.5)


class TestProcessShippability:
    @pytest.mark.parametrize("name", GP_KERNELS)
    def test_kernel_pickles(self, name):
        kern = _kernel(name)
        clone = pickle.loads(pickle.dumps(kern))
        assert np.array_equal(clone(PTS[:20], PTS[:20]), kern(PTS[:20], PTS[:20]))
