"""Lifecycle of the persistent process pool.

A process-pool executor forks its workers once, on the first process
query, and every later query reuses them: each worker keeps its prepared
plans, attaches graphs by shared-memory segment name, and lets go of the
segments of graphs the parent has replaced.  ``close()`` joins the
workers; a worker that dies mid-query becomes a structured error and the
next query forks a replacement.  Each worker talks to the parent over
one pipe, so the tests below also pin what keeps those pipes in step:
concurrent queries of mixed fan-out, a worker's ordinary exception, a
fan-out wider than the pool, and a close during a query.
"""

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import replace

import pytest

from repro.core import create_matcher, engine, find_matches
from repro.errors import WorkerCrashedError
from repro.graphs import pattern_to_dict, shm
from repro.service import QueryExecutor, ServiceConfig, TCSMService
from repro.service import executor as executor_module

LINUX_PROC = os.path.isdir("/proc/self") and os.path.isdir("/dev/shm")


def mapped_segments(pid):
    """Names of the graph segments process *pid* has mapped."""
    with open(f"/proc/{pid}/maps") as maps:
        return {
            line.split("/dev/shm/", 1)[1].split()[0]
            for line in maps
            if "/dev/shm/psm_" in line
        }


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class _MisbehavesInItsWorker:
    """tcsm-eve, except that partition 0 calls :meth:`misbehave` first
    when it runs in a pool worker."""

    def __init__(self, query, constraints, graph, **options):
        self._inner = create_matcher(
            "tcsm-eve", query, constraints, graph, **options
        )

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def misbehave(self):
        raise NotImplementedError

    def run_sink(self, ctx, sink):
        in_worker = multiprocessing.parent_process() is not None
        if in_worker and ctx.partition is not None and ctx.partition[0] == 0:
            self.misbehave()
        self._inner.run_sink(ctx, sink)


class _KillsItsWorker(_MisbehavesInItsWorker):
    """Partition 0 SIGKILLs the pool worker running it."""

    def misbehave(self):
        os.kill(os.getpid(), signal.SIGKILL)


class _RaisesInItsWorker(_MisbehavesInItsWorker):
    """Partition 0 raises an ordinary exception in the pool worker."""

    def misbehave(self):
        raise ValueError("partition 0 refused")


class _SleepsInItsWorker(_MisbehavesInItsWorker):
    """Partition 0 touches :attr:`marker`, then sleeps far past any test."""

    marker = ""

    def misbehave(self):
        with open(self.marker, "w"):
            pass
        time.sleep(600)


def start_thread(target):
    """Start *target* on a daemon thread; returns the thread and a list
    that receives its result or its exception."""
    box = []

    def body():
        try:
            box.append(target())
        except Exception as exc:
            box.append(exc)

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    return thread, box


class TestPersistentPool:
    def test_same_workers_serve_consecutive_queries(self, toy_spec):
        with QueryExecutor(max_workers=2, pool="process") as executor:
            outcomes = [executor.run_process(toy_spec) for _ in range(10)]
            pids = {pid for o in outcomes for pid in o.worker_pids}
            assert len(pids) <= 2
            assert all(alive(pid) for pid in pids)
        assert all(o.stats.matches == 2 for o in outcomes)

    def test_repeated_plan_key_hits_worker_cache(self, toy_spec):
        with QueryExecutor(max_workers=2, pool="process") as executor:
            outcomes = [executor.run_process(toy_spec) for _ in range(10)]
        hits = [hit for o in outcomes for hit in o.worker_plan_hits]
        # Each worker prepares the plan at most once.
        assert hits.count(False) <= 2
        assert outcomes[-1].worker_plan_hits == (True, True)
        assert all(o.worker_compiles == (0, 0) for o in outcomes)

    def test_task_outside_a_worker_is_rejected(self, toy_spec):
        with pytest.raises(RuntimeError, match="pool worker"):
            executor_module._run_task(toy_spec, None)

    def test_thread_pool_service_starts_no_process(self, toy):
        query, tc, graph, _, _ = toy
        before = set(multiprocessing.active_children())
        with TCSMService(ServiceConfig(max_workers=2)) as svc:
            svc.load_graph("toy", graph)
            result = svc.query("toy", query, tc, workers=2)
            assert svc.executor._processes is None
            assert set(multiprocessing.active_children()) == before
        assert result.partitions == 1

    def test_close_leaves_no_live_children(self, toy_spec):
        executor = QueryExecutor(max_workers=2, pool="process")
        pids = executor.run_process(toy_spec).worker_pids
        executor.close()
        assert not any(alive(pid) for pid in pids)
        assert multiprocessing.active_children() == []

    def test_pool_starts_while_another_thread_holds_a_shm_lock(
        self, toy_spec
    ):
        # The fork happens on the runner thread while this thread holds a
        # lock the new workers take when they start.
        executor = QueryExecutor(max_workers=2, pool="process")
        outcomes = []
        runner = threading.Thread(
            target=lambda: outcomes.append(executor.run_process(toy_spec))
        )
        with shm._OWNERS_LOCK:
            runner.start()
            runner.join(timeout=30)
        try:
            assert not runner.is_alive(), "pool workers hung on start"
            assert outcomes[0].stats.matches == 2
        finally:
            if runner.is_alive():
                for child in multiprocessing.active_children():
                    child.kill()
                runner.join(timeout=30)
            executor.close()

    def test_closed_executor_refuses_process_queries(self, toy_spec):
        executor = QueryExecutor(max_workers=2, pool="process")
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.run_process(toy_spec)


class TestPipesStayInStep:
    def test_concurrent_queries_of_mixed_fanout_all_finish(self, toy, toy_spec):
        query, tc, graph, _, _ = toy
        reference = sorted(find_matches(query, tc, graph).matches)
        fanouts = ((2, 3, 2, 3, 1), (3, 2, 3, 2, 2), (2, 2, 3, 1, 3))
        with QueryExecutor(max_workers=3, pool="process") as executor:
            clients = [
                start_thread(
                    lambda mix=mix: [
                        (workers, executor.run_process(toy_spec, workers=workers))
                        for workers in mix * 4
                    ]
                )
                for mix in fanouts
            ]
            deadline = time.monotonic() + 120
            for thread, _ in clients:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not any(thread.is_alive() for thread, _ in clients), "hung"
            workers = multiprocessing.active_children()
            assert len(workers) == 3
            assert all(worker.daemon for worker in workers)
        answers = [answer for _, (result,) in clients for answer in result]
        assert len(answers) == 60
        for workers, outcome in answers:
            assert outcome.partitions == workers
            assert sorted(outcome.matches) == reference
        assert len({p for _, o in answers for p in o.worker_pids}) == 3

    def test_worker_error_surfaces_and_the_workers_serve_on(
        self, toy, toy_spec, monkeypatch
    ):
        query, tc, graph, _, _ = toy
        reference = sorted(find_matches(query, tc, graph).matches)
        monkeypatch.setitem(
            engine._REGISTRY, "test-raises-in-worker", _RaisesInItsWorker
        )
        failing = replace(
            toy_spec, algorithm="test-raises-in-worker", plan_key="raises"
        )
        with QueryExecutor(max_workers=2, pool="process") as executor:
            before = executor.run_process(toy_spec, workers=2)
            with pytest.raises(ValueError, match="partition 0 refused") as info:
                executor.run_process(failing, workers=2)
            # The worker's traceback rides along as the cause.
            assert "in misbehave" in str(info.value.__cause__)
            # Partition 1's reply was read, so neither pipe is left
            # holding a stale slice for the next query.
            after = [executor.run_process(toy_spec, workers=2) for _ in range(3)]
        assert all(sorted(o.matches) == reference for o in after)
        assert {o.worker_pids for o in after} == {before.worker_pids}

    def test_more_partitions_than_workers_do_not_hang(self, toy, toy_spec):
        query, tc, graph, _, _ = toy
        reference = sorted(find_matches(query, tc, graph).matches)
        with QueryExecutor(max_workers=2, pool="process") as executor:
            thread, box = start_thread(
                lambda: executor.run_process(toy_spec, workers=5)
            )
            thread.join(timeout=60)
            assert not thread.is_alive(), "5 partitions waited on 2 workers"
        (outcome,) = box
        assert outcome.partitions == 2
        assert sorted(outcome.matches) == reference

    def test_close_during_a_query_ends_it_and_leaves_nothing(
        self, toy, tmp_path, monkeypatch
    ):
        query, tc, graph, _, _ = toy
        marker = tmp_path / "partition-0-started"
        monkeypatch.setattr(_SleepsInItsWorker, "marker", str(marker))
        monkeypatch.setitem(
            engine._REGISTRY, "test-sleeps-in-worker", _SleepsInItsWorker
        )
        svc = TCSMService(ServiceConfig(max_workers=2, pool="process"))
        svc.load_graph("toy", graph)
        segment = svc.graphs.get("toy").shared.name
        runner, box = start_thread(
            lambda: svc.query(
                "toy", query, tc, algorithm="test-sleeps-in-worker", workers=2
            )
        )
        deadline = time.monotonic() + 60
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert marker.exists(), "partition 0 never started"
        closer, _ = start_thread(svc.close)
        closer.join(timeout=30)
        assert not closer.is_alive(), "close() hung on an in-flight query"
        runner.join(timeout=30)
        assert not runner.is_alive(), "the in-flight query hung after close()"
        (error,) = box
        assert isinstance(error, WorkerCrashedError), error
        assert "closed" in str(error)
        assert multiprocessing.active_children() == []
        if LINUX_PROC:
            assert not os.path.exists(f"/dev/shm/{segment}")


class TestDeadWorker:
    def test_killed_worker_is_an_error_and_the_pool_respawns(
        self, toy, monkeypatch
    ):
        query, tc, graph, _, _ = toy
        reference = sorted(find_matches(query, tc, graph).matches)
        # Registered before the pool forks, so the workers know it too.
        monkeypatch.setitem(
            engine._REGISTRY, "test-kills-worker", _KillsItsWorker
        )
        with TCSMService(ServiceConfig(max_workers=2, pool="process")) as svc:
            svc.load_graph("toy", graph)
            segment = svc.graphs.get("toy").shared.name
            reply = svc.submit(
                {
                    "op": "query",
                    "id": 7,
                    "graph": "toy",
                    "pattern": pattern_to_dict(query, tc),
                    "algorithm": "test-kills-worker",
                    "workers": 2,
                }
            )
            assert reply["status"] == "error", reply
            assert reply["id"] == 7
            assert "worker died" in reply["error"]
            again = svc.query(
                "toy", query, tc, workers=2, use_result_cache=False
            )
            assert sorted(again.matches) == reference
            assert svc.inflight == 0
        assert multiprocessing.active_children() == []
        if LINUX_PROC:
            assert not os.path.exists(f"/dev/shm/{segment}")


@pytest.mark.skipif(not LINUX_PROC, reason="reads /proc/<pid>/maps")
class TestRetiredSegments:
    def test_workers_let_go_of_replaced_graphs(self, toy):
        query, tc, graph, _, _ = toy
        segments = []
        with TCSMService(ServiceConfig(max_workers=2, pool="process")) as svc:
            for _ in range(5):
                segments.append(svc.load_graph("toy", graph).shared.name)
                for _ in range(4):
                    result = svc.query(
                        "toy", query, tc, workers=2, use_result_cache=False
                    )
                    assert result.match_count == 2
                workers = multiprocessing.active_children()
                assert 1 <= len(workers) <= 2
                for worker in workers:
                    mapped = mapped_segments(worker.pid)
                    # One live graph: at most one mapping, and never a
                    # graph older than the one just replaced.
                    assert len(mapped) <= 1, mapped
                    assert mapped <= set(segments[-2:]), mapped
        for segment in segments:
            assert not os.path.exists(f"/dev/shm/{segment}")
        assert multiprocessing.active_children() == []
