"""Serial-vs-parallel equivalence and determinism of ParallelRunner.

The contract under test: the process pool is an execution detail —
``ParallelRunner.run_grid`` must reproduce the serial ``run_grid``
output *exactly* (summaries and ordering), for any worker count, start
method, and cache state.
"""

import dataclasses

import pytest

from repro.experiments.parallel import (ParallelRunner,
                                        SummarySimulationResult,
                                        cache_key, trace_digest)
from repro.experiments.runner import capacity_sweep, grid_cells, run_grid
from repro.experiments.suites import (policy_factories, register_policy,
                                      select, unregister_policy)
from repro.sim.config import SimulationConfig
from repro.traces.azure import azure_trace

POLICIES = ["TTL", "FaasCache", "CIDRE"]
CONFIGS = [SimulationConfig(capacity_gb=2.0),
           SimulationConfig(capacity_gb=4.0)]


@pytest.fixture(scope="module")
def tiny():
    return azure_trace(seed=3, total_requests=1_200, n_functions=15)


@pytest.fixture(scope="module")
def serial(tiny):
    return run_grid(tiny, select(POLICIES), CONFIGS)


def assert_matches_serial(parallel_results, serial_results):
    assert [(r.policy_name, r.config) for r in parallel_results] \
        == [(r.policy_name, r.config) for r in serial_results]
    for par, ser in zip(parallel_results, serial_results):
        assert par.summary() == ser.summary()


class TestEquivalence:
    def test_jobs1_serial_fallback(self, tiny, serial):
        runner = ParallelRunner(jobs=1)
        assert_matches_serial(runner.run_grid(tiny, POLICIES, CONFIGS),
                              serial)

    def test_fork_pool_bit_identical(self, tiny, serial):
        runner = ParallelRunner(jobs=2, mp_context="fork")
        assert_matches_serial(runner.run_grid(tiny, POLICIES, CONFIGS),
                              serial)

    def test_spawn_pool_bit_identical(self, tiny, serial):
        # spawn re-imports everything in the workers: proves job specs
        # are picklable and nothing leaks through process inheritance.
        runner = ParallelRunner(jobs=2, mp_context="spawn")
        assert_matches_serial(runner.run_grid(tiny, POLICIES, CONFIGS),
                              serial)

    def test_summary_collection_bit_identical(self, tiny, serial):
        runner = ParallelRunner(jobs=2, mp_context="fork",
                                collect="summary")
        results = runner.run_grid(tiny, POLICIES, CONFIGS)
        assert_matches_serial(results, serial)
        assert all(isinstance(r.result, SummarySimulationResult)
                   for r in results)

    def test_capacity_sweep_matches_serial(self, tiny):
        base = SimulationConfig(threads_per_container=2)
        ser = capacity_sweep(tiny, select(POLICIES), (2.0, 4.0), base)
        runner = ParallelRunner(jobs=2, mp_context="fork")
        par = runner.capacity_sweep(tiny, POLICIES, (2.0, 4.0), base)
        assert_matches_serial(par, ser)
        # Every cell is the base config at its own capacity.
        assert [r.config for r in par] == [
            dataclasses.replace(base, capacity_gb=gb)
            for gb in (2.0, 4.0) for _ in POLICIES]

    def test_unknown_policy_rejected_in_parent(self, tiny):
        with pytest.raises(KeyError):
            ParallelRunner(jobs=2).run_grid(tiny, ["Nope"], CONFIGS)


class TestGridOrder:
    def test_run_grid_order_is_config_major(self, tiny):
        """Regression: the documented order is config-major,
        policy-minor — cell i is (configs[i // P], policies[i % P])."""
        results = run_grid(tiny, select(["LRU", "TTL"]), CONFIGS)
        assert [(r.config.capacity_gb, r.policy_name)
                for r in results] == [(2.0, "LRU"), (2.0, "TTL"),
                                      (4.0, "LRU"), (4.0, "TTL")]

    def test_grid_cells_spells_out_the_order(self):
        factories = select(["LRU", "TTL"])
        cells = grid_cells(factories, CONFIGS)
        assert [(c.capacity_gb, f) for c, f in cells] == [
            (2.0, factories[0]), (2.0, factories[1]),
            (4.0, factories[0]), (4.0, factories[1])]


class TestSeeding:
    def test_per_cell_seed_derivation(self, tiny):
        runner = ParallelRunner(jobs=1)
        results = runner.run_grid(tiny, ["TTL", "LRU"], CONFIGS, seed=7)
        assert [r.config.seed for r in results] == [7, 8, 9, 10]

    def test_seeded_runs_identical_across_job_counts(self, tiny):
        one = ParallelRunner(jobs=1).run_grid(tiny, POLICIES, CONFIGS,
                                              seed=11)
        two = ParallelRunner(jobs=2, mp_context="fork").run_grid(
            tiny, POLICIES, CONFIGS, seed=11)
        assert_matches_serial(two, one)

    def test_unseeded_configs_untouched(self, tiny):
        results = ParallelRunner(jobs=1).run_grid(tiny, ["TTL"], CONFIGS)
        assert [r.config for r in results] == CONFIGS


class TestCaching:
    def test_cache_round_trip(self, tiny, serial, tmp_path):
        runner = ParallelRunner(jobs=2, mp_context="fork",
                                cache_dir=tmp_path)
        first = runner.run_grid(tiny, POLICIES, CONFIGS)
        assert runner.last_report.cache_hits == 0
        assert_matches_serial(first, serial)

        again = ParallelRunner(jobs=2, mp_context="fork",
                               cache_dir=tmp_path)
        second = again.run_grid(tiny, POLICIES, CONFIGS)
        assert again.last_report.cache_hits == len(serial)
        assert_matches_serial(second, serial)

    def test_corrupt_cache_entry_is_recomputed(self, tiny, tmp_path):
        runner = ParallelRunner(jobs=1, cache_dir=tmp_path)
        runner.run_grid(tiny, ["TTL"], CONFIGS[:1])
        for path in tmp_path.glob("*.json"):
            path.write_text("{not json")
        runner2 = ParallelRunner(jobs=1, cache_dir=tmp_path)
        results = runner2.run_grid(tiny, ["TTL"], CONFIGS[:1])
        assert runner2.last_report.cache_hits == 0
        assert results[0].summary()["requests"] == tiny.num_requests

    def test_cache_key_sensitive_to_inputs(self, tiny):
        digest = trace_digest(tiny)
        base = cache_key(digest, "TTL", CONFIGS[0])
        assert cache_key(digest, "LRU", CONFIGS[0]) != base
        assert cache_key(digest, "TTL", CONFIGS[1]) != base
        assert cache_key(digest, "TTL",
                         dataclasses.replace(CONFIGS[0], seed=1)) != base
        assert cache_key("other", "TTL", CONFIGS[0]) != base

    def test_trace_digest_stable_and_content_sensitive(self):
        a = azure_trace(seed=3, total_requests=1_200, n_functions=15)
        b = azure_trace(seed=3, total_requests=1_200, n_functions=15)
        c = azure_trace(seed=4, total_requests=1_200, n_functions=15)
        assert trace_digest(a) == trace_digest(b)
        assert trace_digest(a) != trace_digest(c)


class TestReport:
    def test_timing_report_populated(self, tiny):
        runner = ParallelRunner(jobs=2, mp_context="fork")
        runner.run_grid(tiny, POLICIES, CONFIGS)
        report = runner.last_report
        assert len(report.cells) == len(POLICIES) * len(CONFIGS)
        assert report.wall_s > 0
        assert report.cell_seconds > 0
        assert report.speedup > 0
        assert "cells" in report.render()

    def test_progress_callback_streams_every_cell(self, tiny):
        seen = []
        runner = ParallelRunner(
            jobs=1, progress=lambda done, total, cell:
            seen.append((done, total, cell.policy_name)))
        runner.run_grid(tiny, ["TTL", "LRU"], CONFIGS[:1])
        assert seen == [(1, 2, "TTL"), (2, 2, "LRU")]


class TestRegistry:
    def test_registered_policy_runs_through_runner(self, tiny):
        from repro.policies.ttl import TTLPolicy

        register_policy("TTL-5s", lambda trace: TTLPolicy(ttl_ms=5_000))
        try:
            results = ParallelRunner(jobs=1).run_grid(
                tiny, ["TTL-5s"], CONFIGS[:1])
            assert results[0].policy_name == "TTL"
            assert results[0].summary()["requests"] == tiny.num_requests
        finally:
            unregister_policy("TTL-5s")
        assert "TTL-5s" not in policy_factories()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(KeyError):
            register_policy("TTL", lambda trace: None)
