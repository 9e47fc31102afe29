"""Unit tests for tasks, handles and access modes."""

import pytest

from repro.runtime import AccessMode, DataHandle, Task


class TestAccessMode:
    def test_read_flags(self):
        assert AccessMode.R.reads and not AccessMode.R.writes

    def test_write_flags(self):
        assert AccessMode.W.writes and not AccessMode.W.reads

    def test_rw_flags(self):
        assert AccessMode.RW.reads and AccessMode.RW.writes


class TestDataHandle:
    def test_unique_ids(self):
        a, b = DataHandle(), DataHandle()
        assert a.id != b.id

    def test_named(self):
        h = DataHandle(name="A00")
        assert h.name == "A00"

    def test_default_name(self):
        h = DataHandle()
        assert h.name == f"data{h.id}"


class TestTask:
    def test_cost_models(self):
        t = Task(id=0, kind="gemm", seconds=1.5, flops=100.0)
        assert t.cost("seconds") == 1.5
        assert t.cost("flops") == 100.0
        with pytest.raises(ValueError):
            t.cost("joules")

    def test_identity_semantics(self):
        a = Task(id=3, kind="x")
        b = Task(id=3, kind="y")
        c = Task(id=4, kind="x")
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != "not a task"

    def test_n_deps(self):
        t = Task(id=0, kind="x")
        t.deps.update({1, 2, 3})
        assert t.n_deps == 3
