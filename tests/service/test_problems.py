"""ProblemSpec: validation, canonicalization, fingerprint stability."""

import pytest

from repro.service import BadRequestError, ProblemSpec, check_rhs, rhs_dtype, spec_fingerprint


class TestValidation:
    def test_unknown_kernel(self):
        with pytest.raises(BadRequestError):
            ProblemSpec(kernel="nope", n=100)

    def test_unknown_geometry(self):
        with pytest.raises(BadRequestError):
            ProblemSpec(kernel="laplace", n=100, geometry="torus")

    def test_unknown_method(self):
        with pytest.raises(BadRequestError):
            ProblemSpec(kernel="laplace", n=100, method="qr")

    def test_bad_scalars(self):
        with pytest.raises(BadRequestError):
            ProblemSpec(kernel="laplace", n=1)
        with pytest.raises(BadRequestError):
            ProblemSpec(kernel="laplace", n=100, eps=0.0)
        with pytest.raises(BadRequestError):
            ProblemSpec(kernel="laplace", n=100, nb=0)

    @pytest.mark.parametrize(
        "fields",
        [{"eps": float("inf")}, {"eps": float("nan")},
         {"kind": "gp", "kernel": "sqexp", "length": float("inf")},
         {"kind": "gp", "kernel": "sqexp", "noise": float("inf")},
         {"kind": "gp", "kernel": "sqexp", "signal": float("nan")}],
        ids=["eps-inf", "eps-nan", "gp-length-inf", "gp-noise-inf", "gp-signal-nan"],
    )
    def test_from_dict_rejects_non_finite_values(self, fields):
        with pytest.raises(BadRequestError):
            ProblemSpec.from_dict({"kernel": "laplace", "n": 100, **fields})

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(BadRequestError):
            ProblemSpec.from_dict({"kernel": "laplace", "n": 100, "color": "red"})

    def test_from_dict_requires_kernel_and_n(self):
        with pytest.raises(BadRequestError):
            ProblemSpec.from_dict({"kernel": "laplace"})

    def test_from_dict_not_a_dict(self):
        with pytest.raises(BadRequestError):
            ProblemSpec.from_dict([1, 2])


class TestFingerprint:
    def test_stable(self):
        a = ProblemSpec(kernel="laplace", n=500)
        b = ProblemSpec(kernel="laplace", n=500)
        assert spec_fingerprint(a) == spec_fingerprint(b)

    def test_default_nb_explicit_nb_agree(self):
        # nb=None canonicalizes to the effective default, so both forms key
        # to the same stored factorization.
        a = ProblemSpec(kernel="laplace", n=2000)
        b = ProblemSpec(kernel="laplace", n=2000, nb=125)
        assert a.effective_nb == 125
        assert spec_fingerprint(a) == spec_fingerprint(b)

    def test_differs_across_parameters(self):
        base = ProblemSpec(kernel="laplace", n=500)
        variants = [
            ProblemSpec(kernel="helmholtz", n=500),
            ProblemSpec(kernel="laplace", n=501),
            ProblemSpec(kernel="laplace", n=500, eps=1e-8),
            ProblemSpec(kernel="laplace", n=500, method="cholesky"),
            ProblemSpec(kernel="laplace", n=500, geometry="sphere"),
        ]
        fps = {spec_fingerprint(v) for v in variants}
        assert spec_fingerprint(base) not in fps
        assert len(fps) == len(variants)


class TestDtype:
    def test_helmholtz_complex(self):
        import numpy as np

        assert rhs_dtype(ProblemSpec(kernel="helmholtz", n=100)) == np.complex128
        assert rhs_dtype(ProblemSpec(kernel="laplace", n=100)) == np.float64

    @pytest.mark.parametrize("kind", ["object", "string"])
    def test_non_numeric_rhs_is_a_bad_request(self, kind):
        # The solver itself raises ValueError for these; the admission
        # boundary answers with its own typed error before they get there.
        import numpy as np

        rhs = np.ones(100).astype(object) if kind == "object" else np.full(100, "1.0")
        with pytest.raises(BadRequestError, match="dtype"):
            check_rhs(ProblemSpec(kernel="laplace", n=100), rhs)
