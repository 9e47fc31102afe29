"""Shared fixtures: one small factorized problem reused across service tests."""

import numpy as np
import pytest

from repro.service import ProblemSpec, build_solver, spec_fingerprint

SPEC = ProblemSpec(kernel="laplace", n=300, nb=100, eps=1e-7, leaf_size=32)
ZSPEC = ProblemSpec(kernel="helmholtz", n=64, nb=32)


@pytest.fixture(scope="session")
def spec():
    return SPEC


@pytest.fixture(scope="session")
def key(spec):
    return spec_fingerprint(spec)


@pytest.fixture(scope="session")
def solver(spec):
    return build_solver(spec)


@pytest.fixture(scope="session")
def zspec():
    return ZSPEC


@pytest.fixture(scope="session")
def zsolver(zspec):
    return build_solver(zspec)


@pytest.fixture()
def zpanel():
    """C-ordered complex panel: its columns are non-contiguous right-hand sides."""
    rng = np.random.default_rng(2)
    return rng.standard_normal((ZSPEC.n, 3)) + 1j * rng.standard_normal((ZSPEC.n, 3))


@pytest.fixture()
def rhs():
    return np.random.default_rng(0).standard_normal(SPEC.n)
