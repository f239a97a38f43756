"""V2V's matches and counters, pinned on the CM paper workload.

``v2v_golden_cm.json`` holds, for the nine paper (q, tc) patterns on the
CollegeMsg stand-in (seed 1) at a 7-day gap, the full match list in
enumeration order and every ``SearchStats`` field of a full run and of
runs stopped at ``limit`` 1, 3 and 10.  The values were captured from
the V2V that scanned every neighbour of the prec's match before the
per-position candidate lists replaced the scan.  The generated
enumerator must still reproduce them exactly, with or without the
(accepted and ignored) ``codegen`` option.  This is
the guard on the rule that credits the non-candidates the lists skip to
``candidates_generated``, the ``intersect`` bucket and ``fail_layers``:
``bench_codegen.py --check`` compares neither of the first and last.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core import MatchOptions, create_matcher, find_matches
from repro.datasets import load_dataset, paper_workloads

GOLDEN = json.loads(
    (Path(__file__).with_name("v2v_golden_cm.json")).read_text(encoding="utf-8")
)
DAY = 86_400
LIMITS = (None, 1, 3, 10)
WORKLOADS = {
    f"{qname}-{tname}": (query, constraints)
    for qname, tname, query, constraints in paper_workloads(gap=7 * DAY)
}


@pytest.fixture(scope="module")
def cm():
    return load_dataset("CM", seed=1).freeze()


def _stats(stats):
    """Every SearchStats field, in the golden file's plain-data form."""
    fields = dataclasses.asdict(stats)
    fields["fail_layers"] = {
        str(layer): count for layer, count in sorted(stats.fail_layers.items())
    }
    fields["filters"] = {
        name: [bucket.considered, bucket.pruned]
        for name, bucket in sorted(stats.filters.items())
    }
    return fields


def test_golden_covers_the_nine_patterns():
    assert sorted(GOLDEN) == sorted(WORKLOADS)
    for entry in GOLDEN.values():
        assert sorted(entry["stats"]) == sorted(str(lim or "full") for lim in LIMITS)


@pytest.mark.parametrize("limit", LIMITS)
@pytest.mark.parametrize("codegen", [False, True])
@pytest.mark.parametrize("pattern", sorted(WORKLOADS))
def test_v2v_matches_and_counters_equal_golden(cm, pattern, codegen, limit):
    query, constraints = WORKLOADS[pattern]
    matcher = create_matcher("tcsm-v2v", query, constraints, cm)
    result = find_matches(
        query, constraints, cm,
        options=MatchOptions(limit=limit, codegen=codegen), matcher=matcher,
    )
    want = GOLDEN[pattern]
    got = [
        [list(match.vertex_map), list(match.timestamp_vector())]
        for match in result.matches
    ]
    assert got == want["matches"][:limit]
    assert _stats(result.stats) == want["stats"][str(limit or "full")]
