"""Counter parity across execution paths: inline, thread pool, process pool.

Prepare-time filter counters (the ``nlf`` / ``ldf`` buckets) describe
the one prepared plan, so every path must report them exactly once per
query.  Process workers each prepare their own matcher; they return
slice-only stats, and the service merges its plan's prepare counters
once, the same way as for the thread pool.
"""

import pytest

from repro.core import find_matches
from repro.service import ServiceConfig, TCSMService

#: The prepare-time filter bucket each algorithm records, and its
#: ``considered`` count on the toy instance.
PREPARE_BUCKET = {
    "tcsm-v2v": ("nlf", 14),
    "tcsm-e2e": ("ldf", 37),
    "tcsm-eve": ("ldf", 37),
}


def serve_once(toy, pool, algo):
    query, tc, graph, _, _ = toy
    with TCSMService(ServiceConfig(max_workers=3, pool=pool)) as svc:
        svc.load_graph("toy", graph)
        return svc.query("toy", query, tc, algorithm=algo, workers=3)


@pytest.mark.parametrize("algo", sorted(PREPARE_BUCKET))
def test_process_stats_equal_thread_stats(toy, algo):
    thread = serve_once(toy, "thread", algo)
    process = serve_once(toy, "process", algo)
    assert thread.partitions == process.partitions == 3
    assert sorted(process.matches) == sorted(thread.matches)
    assert process.stats == thread.stats


@pytest.mark.parametrize("algo", sorted(PREPARE_BUCKET))
@pytest.mark.parametrize("pool", ["thread", "process"])
def test_prepare_buckets_counted_once(toy, algo, pool):
    query, tc, graph, _, _ = toy
    name, considered = PREPARE_BUCKET[algo]
    inline = find_matches(query, tc, graph, algorithm=algo).stats
    assert inline.filters[name].considered == considered
    served = serve_once(toy, pool, algo).stats
    assert served.filters[name] == inline.filters[name]
