"""One remote-worker protocol, every transport.

The process tier (shared-memory descriptors over a pipe) and the host
tier (RFB1 frames over the sim or socket fabric) serve the same op
table through the same serve loop, so one test body runs over the
whole transport × fabric matrix: bitwise batches, the compile RPCs, a
failed request that leaves the worker serving, a late reply to a
timed-out request that must never be taken for the next one's, and
the same local argument check on every tier.
"""

import sys
import threading
import time

import pytest

from repro.serve import (
    HostWorker,
    ProcessWorker,
    ProcessWorkerError,
)

from conftest import make_window
from test_serve_procpool import assert_results_equal

pytestmark = pytest.mark.filterwarnings("error::UserWarning")

TIERS = {
    "process": lambda engine, **kw: ProcessWorker(engine, **kw),
    "host-sim": lambda engine, **kw: HostWorker(engine, fabric="sim", **kw),
    "host-socket": lambda engine, **kw: HostWorker(engine, fabric="socket",
                                                   **kw),
}


@pytest.fixture(scope="module", params=list(TIERS))
def tier(request):
    return request.param


@pytest.fixture(scope="module")
def worker(tier, engine):
    """One warm worker per tier, shared by the tests of the module
    (each test leaves it alive and idle)."""
    engine.compile(2)
    engine.compile(8)
    with TIERS[tier](engine, warm_batches=(2, 8)) as w:
        yield w


@pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
def test_batch_bitwise_equals_direct(worker, engine, windows, n):
    direct = engine.forecast_batch(windows[:n])
    served = worker.forecast_batch(windows[:n])
    assert_results_equal(direct, served)
    # eager, exact-hit and padded calls alike: the same plan choice
    assert [(r.compiled, r.plan_batch) for r in served] == \
        [(r.compiled, r.plan_batch) for r in direct]


def test_empty_batch(worker):
    assert worker.forecast_batch([]) == []


def test_compile(worker, engine, windows):
    worker.compile(3)
    assert 3 in worker.compiled_batches
    served = worker.forecast_batch(windows[:3])
    assert served[0].compiled
    assert_results_equal(engine.forecast_batch(windows[:3]), served)
    assert 3 in worker.plan_stats()["batches"]


def test_compile_buckets_histogram(tier, engine_factory, windows):
    local = engine_factory()
    with TIERS[tier](local) as w:
        w.compile_buckets(max_batch=8, histogram={3: 10, 8: 1})
        assert {3, 8} <= set(w.compiled_batches)
        served = w.forecast_batch(windows[:3])
        assert served[0].compiled and served[0].plan_batch == 3
        assert_results_equal(local.forecast_batch(windows[:3]), served)


def test_bad_request_fails_its_call_only(worker, windows):
    bad = [make_window(0, t=2)]         # wrong T: the remote engine raises
    with pytest.raises(ProcessWorkerError, match="failed batch"):
        worker.forecast_batch(bad)
    assert worker.alive
    assert worker.forecast_batch(windows[:1])


def test_late_reply_is_not_taken_for_the_next(worker, engine, windows):
    first, second = windows[:8], windows[4:12]
    worker.request_timeout = 1e-4
    try:
        with pytest.raises(ProcessWorkerError, match="within"):
            worker.forecast_batch(first)
    finally:
        worker.request_timeout = None
    served = worker.forecast_batch(second)
    assert_results_equal(engine.forecast_batch(second), served)
    assert worker.alive
    # the abandoned request left the in-flight set
    assert worker.transport_stats().get("inflight_depth", 1) == 1


def test_compile_buckets_needs_a_size(worker, engine):
    with pytest.raises(ValueError, match="max_batch or histogram"):
        engine.compile_buckets(None, None)
    with pytest.raises(ValueError, match="max_batch or histogram"):
        worker.compile_buckets(None, None)
    assert worker.alive


def test_concurrent_callers_racing_their_deadlines(worker, engine, windows):
    """Four callers share the worker while a tight ``request_timeout``
    abandons some of their requests: every call that returns holds its
    own batch's fields, and the batch counter loses no update."""
    jobs = [windows[i % 10:i % 10 + 1 + i % 3] for i in range(24)]
    direct = [engine.forecast_batch(job) for job in jobs]
    outcomes = [None] * len(jobs)

    def run(first):
        for i in range(first, len(jobs), 4):
            try:
                outcomes[i] = worker.forecast_batch(jobs[i])
            except ProcessWorkerError as exc:
                outcomes[i] = exc

    # a deadline near one call's own latency: queued calls miss it,
    # lone ones make it
    t0 = time.perf_counter()
    worker.forecast_batch(jobs[1])
    deadline = 2 * (time.perf_counter() - t0)
    before = worker.transport_stats()["batches"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    worker.request_timeout = deadline
    try:
        threads = [threading.Thread(target=run, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        worker.request_timeout = None
        sys.setswitchinterval(interval)
    served = 0
    for out, want in zip(outcomes, direct):
        if isinstance(out, ProcessWorkerError):
            assert "within" in str(out), out
        else:
            assert_results_equal(want, out)
            served += 1
    assert worker.transport_stats()["batches"] - before == served
    assert worker.alive
    assert_results_equal(engine.forecast_batch(windows[:2]),
                         worker.forecast_batch(windows[:2]))
