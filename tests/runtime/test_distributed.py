"""Unit tests for the distributed-memory simulation substrate."""

import numpy as np
import pytest

from repro.runtime import (
    AccessMode,
    DistributedMachine,
    StfEngine,
    TaskGraph,
    block_cyclic_1d,
    block_cyclic_2d,
    greedy_balanced,
    simulate_distributed,
    tile_h_distribution,
)

R, RW = AccessMode.R, AccessMode.RW


class TestMachine:
    def test_comm_seconds(self):
        m = DistributedMachine(nodes=2, latency=1e-6, bandwidth=1e9)
        assert m.comm_seconds(0) == 1e-6
        assert m.comm_seconds(1e9) == pytest.approx(1.0 + 1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            DistributedMachine(nodes=0)
        with pytest.raises(ValueError):
            DistributedMachine(nodes=1, workers_per_node=0)
        with pytest.raises(ValueError):
            DistributedMachine(nodes=1, bandwidth=0)
        with pytest.raises(ValueError):
            DistributedMachine(nodes=1, latency=-1)


class TestMappings:
    def test_block_cyclic_1d(self):
        m = block_cyclic_1d(4, 2)
        assert m[(0, 3)] == 0 and m[(1, 0)] == 1 and m[(2, 2)] == 0

    def test_block_cyclic_2d(self):
        m = block_cyclic_2d(4, 2, 2)
        assert m[(0, 0)] == 0 and m[(0, 1)] == 1
        assert m[(1, 0)] == 2 and m[(1, 1)] == 3
        assert m[(2, 2)] == 0

    def test_mapping_covers_grid(self):
        m = block_cyclic_2d(5, 2, 3)
        assert len(m) == 25
        assert set(m.values()) <= set(range(6))

    def test_greedy_balanced(self):
        tile_bytes = {(0, 0): 100.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): 1.0}
        m = greedy_balanced(tile_bytes, 2)
        # The heavy tile is alone on its node.
        heavy_node = m[(0, 0)]
        others = [m[k] for k in tile_bytes if k != (0, 0)]
        assert all(o != heavy_node for o in others)

    def test_greedy_load_spread(self):
        rng = np.random.default_rng(0)
        tile_bytes = {(i, j): float(rng.uniform(1, 10)) for i in range(6) for j in range(6)}
        m = greedy_balanced(tile_bytes, 4)
        loads = [0.0] * 4
        for k, node in m.items():
            loads[node] += tile_bytes[k]
        assert max(loads) / min(loads) < 1.3

    def test_validation(self):
        with pytest.raises(ValueError):
            block_cyclic_1d(0, 2)
        with pytest.raises(ValueError):
            block_cyclic_2d(2, 0, 2)
        with pytest.raises(ValueError):
            greedy_balanced({}, 0)


def _two_node_chain(comm_bytes=1e6):
    """Producer on node 0, consumer on node 1, 1 second of work each."""
    eng = StfEngine(mode="deferred")
    a = eng.handle(object(), "A[0,0]")
    b = eng.handle(object(), "A[1,0]")
    eng.insert_task("w", None, [(a, RW)]).seconds = 1.0
    eng.insert_task("r", None, [(a, R), (b, RW)]).seconds = 1.0
    g = eng.wait_all()
    handle_node = {a.id: 0, b.id: 1}
    handle_bytes = {a.id: comm_bytes, b.id: comm_bytes}
    return g, handle_node, handle_bytes


class TestSimulateDistributed:
    def test_empty_graph(self):
        m = DistributedMachine(nodes=2)
        r = simulate_distributed(TaskGraph(), {}, m)
        assert r.makespan == 0.0

    def test_cross_node_edge_pays_comm(self):
        g, hn, hb = _two_node_chain(comm_bytes=1e9)
        m = DistributedMachine(nodes=2, latency=0.5, bandwidth=1e9)
        r = simulate_distributed(g, hn, m, handle_bytes=hb)
        # 1s work + (0.5 latency + 1s transfer) + 1s work.
        assert r.makespan == pytest.approx(3.5)
        assert r.total_comm_bytes == 1e9
        assert r.n_messages == 1

    def test_same_node_edge_free(self):
        g, hn, hb = _two_node_chain()
        hn = {h: 0 for h in hn}
        m = DistributedMachine(nodes=2, latency=0.5)
        r = simulate_distributed(g, hn, m, handle_bytes=hb)
        assert r.makespan == pytest.approx(2.0)
        assert r.n_messages == 0

    def test_missing_bytes_latency_only(self):
        g, hn, _ = _two_node_chain()
        m = DistributedMachine(nodes=2, latency=0.25)
        r = simulate_distributed(g, hn, m)
        assert r.makespan == pytest.approx(2.25)

    def test_parallel_nodes(self):
        eng = StfEngine(mode="deferred")
        handles = [eng.handle(object(), f"A[{i},{i}]") for i in range(4)]
        for h in handles:
            eng.insert_task("w", None, [(h, RW)]).seconds = 1.0
        g = eng.wait_all()
        hn = {h.id: i % 2 for i, h in enumerate(handles)}
        m = DistributedMachine(nodes=2, workers_per_node=2)
        r = simulate_distributed(g, hn, m)
        assert r.makespan == pytest.approx(1.0)

    def test_worker_limit_per_node(self):
        eng = StfEngine(mode="deferred")
        handles = [eng.handle(object(), f"A[{i},0]") for i in range(4)]
        for h in handles:
            eng.insert_task("w", None, [(h, RW)]).seconds = 1.0
        g = eng.wait_all()
        hn = {h.id: 0 for h in handles}
        m = DistributedMachine(nodes=1, workers_per_node=2)
        r = simulate_distributed(g, hn, m)
        assert r.makespan == pytest.approx(2.0)

    def test_busy_accounting_and_imbalance(self):
        g, hn, hb = _two_node_chain()
        m = DistributedMachine(nodes=2)
        r = simulate_distributed(g, hn, m, handle_bytes=hb)
        assert r.node_busy == [1.0, 1.0]
        assert r.load_imbalance == pytest.approx(1.0)

    def test_out_of_range_node(self):
        g, hn, _ = _two_node_chain()
        m = DistributedMachine(nodes=1)
        with pytest.raises(ValueError):
            simulate_distributed(g, hn, m)


class TestTileHDistribution:
    def test_end_to_end(self):
        from repro.core import TileHConfig, TileHMatrix
        from repro.geometry import cylinder_cloud, laplace_kernel

        pts = cylinder_cloud(400)
        kern = laplace_kernel(pts)
        a = TileHMatrix.build(kern, pts, TileHConfig(nb=100, eps=1e-4, leaf_size=40))
        info = a.factorize()
        mapping = block_cyclic_2d(a.nt, 2, 2)
        hn, hb = tile_h_distribution(info.graph, mapping)
        assert len(hn) == a.nt**2
        assert all(b > 0 for b in hb.values())
        m = DistributedMachine(nodes=4, workers_per_node=4, bandwidth=1e9)
        r = simulate_distributed(info.graph, hn, m, handle_bytes=hb)
        assert r.makespan > 0
        assert r.n_messages > 0
        # More nodes with comm is never faster than one fat node of the same
        # total core count... in this homogeneous, comm-charged setting.
        one = DistributedMachine(nodes=1, workers_per_node=16)
        hn0 = {h: 0 for h in hn}
        r_one = simulate_distributed(info.graph, hn0, one, handle_bytes=hb)
        assert r_one.makespan <= r.makespan + 1e-9

    def test_rejects_foreign_handles(self):
        eng = StfEngine(mode="deferred")
        h = eng.handle(object(), "weird")
        eng.insert_task("w", None, [(h, RW)]).seconds = 1.0
        g = eng.wait_all()
        with pytest.raises(ValueError):
            tile_h_distribution(g, {})
