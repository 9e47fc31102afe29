"""Unit tests for the analytic flop formulas."""

import pytest

from repro.dense import flops_gemm, flops_getrf, flops_trsm
from repro.dense.flops import complex_factor


class TestFlopFormulas:
    def test_getrf_leading_term(self):
        # (2/3) n^3 dominates for large n.
        n = 4096
        assert flops_getrf(n) == pytest.approx(2 / 3 * n**3, rel=1e-3)

    def test_complex_is_4x(self):
        assert flops_getrf(100, is_complex=True) == 4 * flops_getrf(100)
        assert flops_gemm(10, 20, 30, is_complex=True) == 4 * flops_gemm(10, 20, 30)

    def test_gemm(self):
        assert flops_gemm(2, 3, 4) == 48.0

    def test_trsm(self):
        assert flops_trsm(10, 5) == 500.0

    def test_complex_factor(self):
        assert complex_factor(False) == 1.0
        assert complex_factor(True) == 4.0

    def test_all_nonnegative_small_sizes(self):
        for n in (1, 2, 3):
            assert flops_getrf(n) > 0
            assert flops_trsm(n, n) > 0
            assert flops_gemm(n, n, n) > 0
