"""One copy of each registered graph, and the process workers' plan LRU.

* A registered graph is held as its compiled snapshot only: no handle
  keeps the builder graph alive, and ``describe()`` reads its counts
  from the snapshot.
* Each process worker's plan cache is the service's one LRU: bounded by
  ``worker_plans``, refreshed on a hit, evicting the least recently
  used plan.
"""

import gc
import sys
from dataclasses import replace

import pytest

from repro.datasets import load_dataset
from repro.service import GraphHandle, QueryExecutor, ServiceConfig, TCSMService


@pytest.mark.parametrize("pool", ["thread", "process"])
def test_registered_builder_has_no_handle_referrer(pool):
    builder = load_dataset("CM", scale=0.02, seed=1)
    expected = {
        "num_vertices": builder.num_vertices,
        "num_temporal_edges": builder.num_temporal_edges,
        "num_static_edges": builder.num_static_edges,
    }
    config = ServiceConfig(pool=pool, max_workers=2)
    with TCSMService(config) as svc:
        before = sys.getrefcount(builder)
        handle = svc.load_graph("cm", builder)
        assert sys.getrefcount(builder) == before
        handles = svc.graphs.handles()
        assert handles == (handle,)
        holders = {id(h) for h in handles} | {id(vars(h)) for h in handles}
        referrers = gc.get_referrers(builder)
        assert not [r for r in referrers if id(r) in holders]
        assert not any(isinstance(r, GraphHandle) for r in referrers)
        described = handle.describe()
        assert {key: described[key] for key in expected} == expected


def test_worker_plan_cache_is_a_bounded_lru(toy_spec):
    """One worker, one plan slot: keys A, A, B, A read miss, hit, miss,
    miss (B evicted A).  One worker keeps task placement fixed."""
    spec_a = replace(toy_spec, plan_key="A")
    spec_b = replace(toy_spec, plan_key="B")
    with QueryExecutor(max_workers=1, pool="process", worker_plans=1) as ex:
        hits = [
            ex.run_process(spec, workers=1).worker_plan_hits
            for spec in (spec_a, spec_a, spec_b, spec_a)
        ]
    assert hits == [(False,), (True,), (False,), (False,)]


def test_worker_plan_cache_refreshes_on_hit(toy_spec):
    """Two slots: A, B, A (refresh), C evicts B, so A still hits."""
    spec_a, spec_b, spec_c = (
        replace(toy_spec, plan_key=key) for key in ("A", "B", "C")
    )
    with QueryExecutor(max_workers=1, pool="process", worker_plans=2) as ex:
        hits = [
            ex.run_process(spec, workers=1).worker_plan_hits
            for spec in (spec_a, spec_b, spec_a, spec_c, spec_a, spec_b)
        ]
    assert hits == [
        (False,), (False,), (True,), (False,), (True,), (False,)
    ]
