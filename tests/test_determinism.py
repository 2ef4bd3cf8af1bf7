"""Determinism guarantees: same seed, same everything."""

import pytest

from repro.analysis import run_program
from repro.pperfmark import IntensiveServer, PrestaRma, RandomBarrier
from repro.sanitizer import sanitize_program


def _signature(result):
    pc = result.consultant
    return (
        round(result.elapsed, 9),
        pc.render_condensed(),
        tuple(sorted(pc.summary().items())),
    )


def test_same_seed_reproduces_pc_output_exactly():
    a = _signature(run_program(RandomBarrier(iterations=30), seed=7))
    b = _signature(run_program(RandomBarrier(iterations=30), seed=7))
    assert a == b


def test_different_seeds_differ_where_randomness_exists():
    presta_a = PrestaRma(ops_per_epoch=50, epochs=4, patterns=("uni_put",))
    presta_b = PrestaRma(ops_per_epoch=50, epochs=4, patterns=("uni_put",))
    run_program(presta_a, impl="mpich2", with_tool=False, seed=1)
    run_program(presta_b, impl="mpich2", with_tool=False, seed=2)
    assert presta_a.results["uni_put"].elapsed != presta_b.results["uni_put"].elapsed


def test_exited_processes_retire_from_hierarchy():
    result = run_program(IntensiveServer(iterations=40))
    hierarchy = result.tool.hierarchy
    for ep in result.world.endpoints:
        node = hierarchy.find(f"/Machine/{ep.proc.node.name}/pid{ep.proc.pid}")
        assert node.retired


# Golden-trace regression: the sanitizer hashes every (time, rank, function,
# entry/exit) event, so two runs with the same seed must produce the same
# digest -- any scheduling nondeterminism anywhere in the kernel, the MPI
# engine, or a personality shows up here immediately.

@pytest.mark.parametrize("impl", ["lam", "mpich", "mpich2"])
@pytest.mark.parametrize("seed", [0, 7])
def test_same_seed_same_event_trace_digest(impl, seed):
    a = sanitize_program("random_barrier", impl=impl, seed=seed, quick=True)
    b = sanitize_program("random_barrier", impl=impl, seed=seed, quick=True)
    assert a.status == b.status == "clean"
    assert a.trace_digest == b.trace_digest
    assert a.data_signature == b.data_signature
    assert a.elapsed == b.elapsed


@pytest.mark.parametrize("impl", ["lam", "mpich2"])
def test_same_seed_same_rma_trace_digest(impl):
    a = sanitize_program("winfencesync", impl=impl, seed=3, quick=True)
    b = sanitize_program("winfencesync", impl=impl, seed=3, quick=True)
    assert a.trace_digest == b.trace_digest


def test_different_impls_yield_different_traces():
    """The digest is personality-sensitive (fence algorithms differ)."""
    lam = sanitize_program("winfencesync", impl="lam", seed=0, quick=True)
    mpich2 = sanitize_program("winfencesync", impl="mpich2", seed=0, quick=True)
    assert lam.trace_digest != mpich2.trace_digest


# Determinism under parallelism: the same RunSpec executed in-process, in a
# fleet worker pool, and replayed from a warm cache must produce
# byte-identical artifacts -- the invariant that makes content-addressed
# caching sound (and the fleet's whole reason to exist).

def _fleet_specs():
    from repro.fleet import RunSpec

    return [
        RunSpec.make("random_barrier", mode="sanitize", impl=impl, seed=5, quick=True)
        for impl in ("lam", "mpich", "mpich2")
    ] + [RunSpec.make("winfencesync", mode="sanitize", impl="mpich2", quick=True)]


def test_serial_pool_and_warm_cache_artifacts_byte_identical(tmp_path):
    from repro.fleet import (
        FleetScheduler,
        ResultCache,
        execute_spec,
        report_from_artifact,
        to_bytes,
    )

    specs = _fleet_specs()
    serial = {s.digest: to_bytes(execute_spec(s)) for s in specs}

    cache = ResultCache(tmp_path / "cache")
    pool = FleetScheduler(jobs=2, cache=cache)
    for spec in specs:
        pool.submit(spec)
    pooled = {d: to_bytes(a) for d, a in pool.run().items()}
    assert pooled == serial
    assert pool.summary()["completed"] == len(specs)

    warm = FleetScheduler(jobs=2, cache=cache)
    for spec in specs:
        warm.submit(spec)
    replayed = {d: to_bytes(a) for d, a in warm.run().items()}
    assert replayed == serial
    assert warm.summary()["cached"] == len(specs)  # 100% cache hits

    # and the reconstructed reports carry identical trace digests
    for spec in specs:
        a = report_from_artifact(pool.results[spec.digest])
        b = report_from_artifact(warm.results[spec.digest])
        assert a.trace_digest == b.trace_digest
        assert a.data_signature == b.data_signature


def test_cached_sanitize_report_equals_direct_run(tmp_path):
    from repro.fleet import ResultCache, sanitize_cached

    cache = ResultCache(tmp_path / "cache")
    direct = sanitize_program("winfencesync", impl="lam", seed=3, quick=True)
    cached = sanitize_cached("winfencesync", impl="lam", seed=3, quick=True, cache=cache)
    replay = sanitize_cached("winfencesync", impl="lam", seed=3, quick=True, cache=cache)
    for report in (cached, replay):
        assert report.trace_digest == direct.trace_digest
        assert report.data_signature == direct.data_signature
        assert report.status == direct.status
        assert report.elapsed == direct.elapsed
    assert cache.stats.hits == 1
