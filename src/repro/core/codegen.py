"""Generated enumerators: the only code that runs the paper's searches.

V2V (Algorithm 2), E2E (Algorithm 4) and EVE (Algorithm 5) are each
written once, here (:func:`_compile_v2v`, :func:`_compile_e2e`).  A
prepared plan's values (its matching order, each position's
bound/unbound split, the constraint gaps, the STN-closure window
coefficients, the candidate indexes) sit in the plan's tables
(:class:`V2VTables`, :class:`E2ETables`), and the generated search reads
them from the tables passed as the entry's third argument.
:func:`shape_enumerator` compiles one search per query *shape* per
process, shared by every plan of that shape: a V2V shape is the query's
vertex and edge counts; an E2E or EVE shape is its edge count alone,
each position's kind (seed / extend-out / extend-in / closing edge)
being a run-time branch.  In the generated code:

* the DFS is unrolled into one nested function per matching position;
* E2E/EVE positions iterate the candidate-space slot index
  (:mod:`repro.core.candidate_space`): a slot id reads the neighbour and
  its timestamp run straight off the snapshot's flat CSR planes, with no
  non-candidate neighbour scanned and no checked accessor called;
* an E2E/EVE position slices each run to the feasible ``[lo, hi]``
  window the STN closure over the bound edges gives, by direct bisection
  on the snapshot's memoryview runs.  The closure's bound on a pair is
  never looser than a constraint's gap, so every timestamp in the window
  already satisfies each constraint that closes at the position; the
  ``temporal`` bucket counts those timestamps as considered, none pruned;
* V2V positions iterate the prec's candidate list from the same module
  (survivors, their neighbour-run indices, the run length), crediting
  the skipped non-candidates in bulk, and probe pairs and runs through
  its unchecked out-plane readers;
* planes, slot indexes and label constants are closed over as
  entry-function locals, so the hot loop never touches a module dict;
* all ``SearchStats`` counters accumulate in local integers flushed in a
  ``finally`` block, so the totals are exact even when a satisfied sink
  raises :class:`StopEnumeration` mid-search.

Matches are pushed through the existing :class:`ResultSink` protocol, so
limit / top-k / count modes work unchanged.

``compile``/``exec`` of generated source is confined to this module by
reprolint rule R020.  A shape's source is registered with
:mod:`linecache` under ``<repro-shape:…>`` for the life of the process,
so tracebacks out of a generated search show real source lines, and
``linecache.getlines("<repro-shape:e2e/3>")`` reads one back.
"""

from __future__ import annotations

import bisect
import linecache
import math
import time
from collections.abc import Callable, Hashable, Iterator, Mapping, Sequence
from typing import Any, NamedTuple, cast, overload

from ..graphs import Constraint, TemporalEdge

from .candidate_space import CLOSE, IN, OUT, SEED, NeighbourCandidates
from .match import Match
from .options import RunContext
from .partition import partition_slice
from .sinks import ResultSink, StopEnumeration
from .stats import SearchStats
from .timestamps import windows_compatible
from .windows import (
    WindowBounds,
    constraint_slices,
    propagate_run_windows,
    windowed_times,
)

__all__ = [
    "E2ETables",
    "V2VTables",
    "shape_enumerator",
]


class _SourceLines(Sequence[str]):
    """The :mod:`linecache` lines of one generated source, split on read.

    linecache wants a list of lines; this view over the source string
    keeps a shape's source in memory once.  Only a traceback or a
    debugger reads it, a few lines at a time.
    """

    __slots__ = ("source", "_count")

    def __init__(self, source: str) -> None:
        self.source = source
        self._count = source.count("\n")

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[str]:
        return iter(self.source.splitlines(keepends=True))

    @overload
    def __getitem__(self, index: int) -> str: ...

    @overload
    def __getitem__(self, index: slice) -> list[str]: ...

    def __getitem__(self, index: int | slice) -> str | list[str]:
        return self.source.splitlines(keepends=True)[index]


class _Writer:
    """Tiny indented-source emitter for the generated module."""

    def __init__(self) -> None:
        self._lines: list[str] = []
        self._depth = 0

    def line(self, text: str = "") -> None:
        self._lines.append("    " * self._depth + text if text else "")

    def open(self, header: str) -> None:
        self.line(header)
        self._depth += 1

    def close(self) -> None:
        self._depth -= 1

    def source(self) -> str:
        return "\n".join(self._lines) + "\n"


def _flush_fails(stats: SearchStats, fails: Sequence[int]) -> None:
    """Merge layer-indexed local failure counts into *stats*.

    Ascending layer order makes ``first_fail_layer`` the smallest layer
    with a nonzero count — the same value incremental
    :meth:`SearchStats.record_fail` calls produce, independent of the
    order failures occurred in.
    """
    for layer in range(1, len(fails)):
        count = fails[layer]
        if count:
            stats.failed_enumerations += count
            stats.fail_layers[layer] += count
            if stats.first_fail_layer is None or layer < stats.first_fail_layer:
                stats.first_fail_layer = layer


def _flush_v2v(
    stats: SearchStats, fails: Sequence[int], skipped: Sequence[int]
) -> None:
    """Fold V2V's per-layer failures and skipped non-candidates into *stats*.

    ``skipped[layer]`` counts the base members the candidate lists left
    out at that layer (:mod:`repro.core.candidate_space`).  A scan would
    have generated each one, let the intersect filter consider and prune
    it, and recorded a failed enumeration, so they are credited exactly
    so: the counters read as if every neighbour had been scanned.
    """
    total = sum(skipped)
    stats.candidates_generated += total
    bucket = stats.filter("intersect")
    bucket.considered += total
    bucket.pruned += total
    _flush_fails(stats, [f + s for f, s in zip(fails, skipped)])


def _deadline_check(w: _Writer) -> None:
    w.open("if deadline is not None and mono() > deadline:")
    w.line("stats.budget_exhausted = True")
    w.line("stats.deadline_hit = True")
    w.line("raise Stop")
    w.close()


# ----------------------------------------------------------------------
# E2E / EVE generation (Algorithms 4 / 5)
# ----------------------------------------------------------------------


class E2ETables(NamedTuple):
    """A prepared E2E/EVE plan, as its enumerator reads it.

    Per matching position: the query edge it binds, its kind (``SEED``,
    ``OUT``, ``IN`` or ``CLOSE``; see :mod:`repro.core.candidate_space`),
    its slot index (None at a seed), its seed pairs (None unless a
    seed), its window bounds and, for EVE, its Vmatch look-ahead: per
    newly bound endpoint whose BN needs labels, ``(is the edge's target,
    labels)`` (``vmatch`` is None for E2E).  Per query edge: ``(source,
    target, label or None)``.  Then the query's vertex count and the
    snapshot's flat planes, per-label run getter and label signatures.
    """

    order: tuple[int, ...]
    kinds: tuple[str, ...]
    slots: tuple[Mapping[int, Any] | None, ...]
    seeds: tuple[frozenset[tuple[int, int]] | None, ...]
    windows: tuple[WindowBounds, ...]
    vmatch: tuple[tuple[tuple[bool, tuple[Hashable, ...]], ...], ...] | None
    edges: tuple[tuple[int, int, Hashable], ...]
    num_vertices: int
    out_offsets: Sequence[int]
    out_nbrs: Sequence[int]
    out_ts_offsets: Sequence[int]
    out_times: Sequence[int]
    in_nbrs: Sequence[int]
    in_ts_offsets: Sequence[int]
    in_times: Sequence[int]
    label_run: Callable[[tuple[int, int, Hashable], Sequence[int]], Sequence[int]]
    label_signature: Callable[[int], Mapping[Hashable, int]]


def _compile_e2e(m: int, eve: bool) -> tuple[str, dict[str, Any]]:
    """Write the E2E (with *eve*, EVE) enumerator for every plan with *m*
    query edges.

    One nested function per position reads its query edge, endpoints,
    window bounds and Vmatch labels from the tables the entry takes as
    its third argument: a later position's kind is a run-time branch
    over the four candidate sources, an edge label a run-time choice
    between the plane and the per-label index, and the window bounds and
    Vmatch look-ahead short loops.  Returns the source and the namespace
    to execute it in.
    """
    ns: dict[str, Any] = {
        "_PART_SLICE": partition_slice,
        "_BL": bisect.bisect_left,
        "_BR": bisect.bisect_right,
        "_MONO": time.monotonic,
        "_STOP": StopEnumeration,
        "_MATCH": Match,
        "_TE": TemporalEdge,
        "_TNEW": tuple.__new__,
        "_NINF": -math.inf,
        "_PINF": math.inf,
        "_FLUSH_FAILS": _flush_fails,
    }

    w = _Writer()
    w.open("def _enumerate(ctx, sink, tables):")
    # The snapshot's flat planes: slot k names a neighbour (o/inb[k]) and
    # the run o/itm[o/itoff[k] : o/itoff[k + 1]].
    w.line(
        "(order, kinds, slots, seeds, windows, vmatch, edges, n,"
        " ooff, onb, otoff, otm, inb, itoff, itm, ltg, sig) = tables"
    )
    w.line("stats = ctx.stats")
    w.line("deadline = ctx.deadline")
    w.line("accept = sink.accept")
    w.line('b_inj = stats.filter("injectivity")')
    w.line('b_tmp = stats.filter("temporal")')
    if eve:
        w.line('b_vm = stats.filter("vmatch")')
    # Hoist every namespace constant into entry locals: the nested DFS
    # functions reach them through fast closure cells, not dict lookups.
    w.line("mono = _MONO")
    w.line("Stop = _STOP")
    w.line("Mk = _MATCH")
    w.line("TE = _TE")
    # Matches and their edges are named tuples built through
    # tuple.__new__ directly, skipping their Python-level __new__.
    w.line("tnew = _TNEW")
    w.line("NINF = _NINF")
    w.line("PINF = _PINF")
    w.line("bl = _BL")
    w.line("br = _BR")
    # Per-plan values the nested functions read, hoisted into entry
    # locals.
    for pos in range(m):
        w.line(f"e{pos} = order[{pos}]")
        w.line(f"qa{pos}, qb{pos}, el{pos} = edges[e{pos}]")
        if pos:
            w.line(f"kd{pos} = kinds[{pos}]")
            w.line(f"w{pos} = windows[{pos}]")
            w.line(f"slots{pos} = slots[{pos}]")
            w.line(f"pairs{pos} = seeds[{pos}]")
        if eve:
            w.line(f"vl{pos} = vmatch[{pos}]")
    for e in range(m):
        w.line(f"ea{e}, eb{e}, _ = edges[{e}]")
    w.line(f"et = [0] * {m}")
    w.line("vm = [0] * n")
    w.line("used = set()")
    w.line("used_add = used.add")
    w.line("used_discard = used.discard")
    counters = [
        "cand_n",
        "val_n",
        "nodes_n",
        "match_n",
        "exp_n",
        "skp_n",
        "inj_c",
        "inj_p",
        "tmp_c",
    ]
    if eve:
        counters += ["vm_c", "vm_p"]
    for name in counters:
        w.line(f"{name} = 0")
    w.line(f"fails = [0] * {m + 2}")
    # Position 0 is always a seed: its candidates are LDF's pairs, or a
    # partition's slice of them.
    w.open("if ctx.partition is not None:")
    w.line("root_seed = _PART_SLICE(seeds[0], ctx.partition)")
    w.close()
    w.open("else:")
    w.line("root_seed = seeds[0]")
    w.close()

    nonlocal_decl = "nonlocal " + ", ".join(counters)

    def emit_window(pos: int) -> None:
        """``feasible_window`` over the bound edge times, into lo/hi."""
        w.line("lo = NINF")
        w.line("hi = PINF")
        # An unbounded side is ``inf`` and never tightens.
        w.open(f"for o, hi_add, lo_sub in w{pos}:")
        w.line("t_o = et[o]")
        w.line("b = t_o + hi_add")
        w.open("if b < hi:")
        w.line("hi = b")
        w.close()
        w.line("b = t_o - lo_sub")
        w.open("if b > lo:")
        w.line("lo = b")
        w.close()
        w.close()

    def emit_vmatch(pos: int, u: str, v: str) -> None:
        """Vmatch for one candidate pair, hoisted out of its timestamp loop.

        The look-ahead depends on the pair's data vertices only, so it
        is evaluated once per pair into ``vfail``; every timestamp that
        reaches it still counts once, so the counters do not change.
        """
        w.line("vfail = False")
        w.open(f"for on_b, labels in vl{pos}:")
        w.line(f"nc = sig({v} if on_b else {u})")
        w.open("for lab in labels:")
        w.open("if lab not in nc:")
        w.line("vfail = True")
        w.line("break")
        w.close()
        w.close()
        w.open("if vfail:")
        w.line("break")
        w.close()
        w.close()

    def emit_leaf() -> None:
        """Count and emit the complete match."""
        _deadline_check(w)
        w.line("match_n += 1")
        edges = ", ".join(
            f"tnew(TE, (vm[ea{e}], vm[eb{e}], et[{e}]))" for e in range(m)
        )
        trailing = "," if m == 1 else ""
        w.line(f"accept(tnew(Mk, (({edges}{trailing}), tuple(vm))))")

    def emit_candidate_body(
        pos: int, u: str, v: str, new_a: bool, new_b: bool
    ) -> None:
        """The per-timestamp candidate validation + bind + recurse block."""
        fail = f"fails[{pos + 1}] += 1"
        _deadline_check(w)
        w.line("cand_n += 1")
        w.line("val_n += 1")
        # Injectivity: a newly bound data vertex must be fresh (the
        # source checked that) and a seed's two endpoints must differ.
        w.line("inj_c += 1")
        if new_a and new_b:
            w.open(f"if {u} == {v}:")
            w.line("inj_p += 1")
            w.line(fail)
            w.line("continue")
            w.close()
        w.line(f"et[e{pos}] = t")
        # The window already holds every constraint closing here.
        w.line("tmp_c += 1")
        if eve:
            w.line("vm_c += 1")
            w.open("if vfail:")
            w.line("vm_p += 1")
            w.line(fail)
            w.line("continue")
            w.close()
        if new_a:
            w.line(f"vm[qa{pos}] = {u}")
            w.line(f"used_add({u})")
        if new_b:
            w.line(f"vm[qb{pos}] = {v}")
            w.line(f"used_add({v})")
        w.line("produced = True")
        if pos + 1 == m:
            emit_leaf()
        else:
            w.line(f"d{pos + 1}()")
        if new_a:
            w.line(f"used_discard({u})")
        if new_b:
            w.line(f"used_discard({v})")

    def emit_time_loop(
        pos: int, u: str, v: str, plane: str, new_a: bool, new_b: bool
    ) -> None:
        """Slice slot k's run (or the pair's labelled run) to the window.

        *plane* is ``"o"`` or ``"i"``: which CSR plane slot ``k`` indexes.
        Labelled query edges take their run from the per-label index.  A
        seed (*new_a* and *new_b*) finds its out-slot by one bisect of
        its source's run.  *new_a* / *new_b* say which endpoints this
        position binds.
        """
        w.open(f"if el{pos} is None:")
        if new_a and new_b:
            w.line("k = bl(onb, dv, ooff[du], ooff[du + 1])")
        w.line(f"ts = {plane}tm")
        w.line(f"s0 = {plane}toff[k]")
        w.line(f"s1 = {plane}toff[k + 1]")
        w.close()
        w.open("else:")
        w.line(f"ts = ltg(({u}, {v}, el{pos}), ())")
        w.line("s0 = 0")
        w.line("s1 = len(ts)")
        w.close()
        if eve:
            emit_vmatch(pos, u, v)
        if pos:
            w.line("i0 = bl(ts, lo, s0, s1)")
            w.line("i1 = br(ts, hi, i0, s1)")
            w.line("exp_n += i1 - i0")
            w.line("skp_n += s1 - s0 - (i1 - i0)")
            w.open("for t in ts[i0:i1]:")
        else:
            w.line("exp_n += s1 - s0")
            w.open("for t in ts[s0:s1]:")
        emit_candidate_body(pos, u, v, new_a, new_b)
        w.close()

    def emit_source(pos: int, kind: str) -> None:
        """Position *pos*'s candidates when it is of *kind*."""
        if kind == OUT:
            w.line(f"da = vm[qa{pos}]")
            w.open(f"for k in slots{pos}[da]:")
            w.line("x = onb[k]")
            w.open("if x in used:")
            w.line("continue")
            w.close()
            emit_time_loop(pos, "da", "x", "o", False, True)
            w.close()
        elif kind == IN:
            w.line(f"db = vm[qb{pos}]")
            w.open(f"for k in slots{pos}[db]:")
            w.line("x = inb[k]")
            w.open("if x in used:")
            w.line("continue")
            w.close()
            emit_time_loop(pos, "x", "db", "i", True, False)
            w.close()
        elif kind == CLOSE:
            w.line(f"da = vm[qa{pos}]")
            w.line(f"db = vm[qb{pos}]")
            w.line(f"k = slots{pos}[da].get(db, -1)")
            w.open("if k >= 0:")
            emit_time_loop(pos, "da", "db", "o", False, False)
            w.close()
        else:
            # Seed edge of a (possibly disconnected) component; only the
            # root position honours the partition slice.
            w.open(f"for du, dv in {'root_seed' if pos == 0 else f'pairs{pos}'}:")
            if pos:
                # At the root nothing is bound yet: the used-check is a
                # statically dead branch and is elided.
                w.open("if du in used or dv in used:")
                w.line("continue")
                w.close()
            emit_time_loop(pos, "du", "dv", "o", True, True)
            w.close()

    for pos in range(m):
        w.open(f"def d{pos}():")
        w.line(nonlocal_decl)
        _deadline_check(w)
        w.line("nodes_n += 1")
        w.line("produced = False")
        if pos == 0:
            emit_source(pos, SEED)
        else:
            emit_window(pos)
            w.open("if lo <= hi:")
            for i, kind in enumerate((OUT, IN, CLOSE)):
                w.open(f"{'elif' if i else 'if'} kd{pos} == {kind!r}:")
                emit_source(pos, kind)
                w.close()
            w.open("else:")
            emit_source(pos, SEED)
            w.close()
            w.close()
        w.open("if not produced:")
        w.line(f"fails[{pos + 1}] += 1")
        w.close()
        w.close()  # def d{pos}

    w.open("try:")
    w.line("d0()")
    w.close()
    w.open("finally:")
    w.line("stats.candidates_generated += cand_n")
    w.line("stats.validations += val_n")
    w.line("stats.nodes_expanded += nodes_n")
    w.line("stats.matches += match_n")
    w.line("stats.timestamps_expanded += exp_n")
    w.line("stats.timestamps_skipped += skp_n")
    w.line("b_inj.considered += inj_c")
    w.line("b_inj.pruned += inj_p")
    w.line("b_tmp.considered += tmp_c")
    if eve:
        w.line("b_vm.considered += vm_c")
        w.line("b_vm.pruned += vm_p")
    w.line("_FLUSH_FAILS(stats, fails)")
    w.close()
    w.close()  # def _enumerate
    return w.source(), ns


# ----------------------------------------------------------------------
# V2V generation (Algorithm 2)
# ----------------------------------------------------------------------


class V2VTables(NamedTuple):
    """A prepared V2V plan, as its enumerator reads it.

    Per matching position: the query vertex, its prec (None at a seed),
    the vertex's NLF candidate set, the prec's candidate list (None at a
    seed), the FV structure checks ``(w, need (u, w), need (w, u))`` and
    the constraints that close there.  Per query edge: ``(source,
    target, label or None)``.  Then the snapshot's unchecked pair
    readers, its per-label run getter, the joint timestamp solver and
    the STN distance matrix.
    """

    order: tuple[int, ...]
    prec: tuple[int | None, ...]
    seeds: tuple[frozenset[int], ...]
    lists: tuple[NeighbourCandidates | None, ...]
    structure: tuple[tuple[tuple[int, bool, bool], ...], ...]
    closing: tuple[tuple[Constraint, ...], ...]
    edges: tuple[tuple[int, int, Hashable], ...]
    has_pair: Callable[[int, int], bool]
    pair_run: Callable[[int, int], Sequence[int]]
    label_run: Callable[[tuple[int, int, Hashable], Sequence[int]], Sequence[int]]
    solve: Callable[[Sequence[Sequence[int]]], Iterator[tuple[int, ...]]]
    dist: list[list[float]]


#: A prepared plan's tables, of either family.
Tables = V2VTables | E2ETables

#: Signature of a shape enumerator: a run context, a sink and the plan's
#: tables.
ShapeEntry = Callable[[RunContext, ResultSink, Tables], None]


def _compile_v2v(n: int, m: int) -> tuple[str, dict[str, Any]]:
    """Write the V2V enumerator for every plan with *n* query vertices and
    *m* query edges.

    One nested function per position reads its vertex, prec, FV checks,
    closing constraints and edge labels from the tables the entry takes
    as its third argument: seed versus extension and labeled versus
    unlabeled run are run-time branches, and the FV checks and closing
    constraints short loops.  Returns the source and the namespace to
    execute it in.
    """
    ns: dict[str, Any] = {
        "_PART_SLICE": partition_slice,
        "_MONO": time.monotonic,
        "_STOP": StopEnumeration,
        "_MATCH": Match,
        "_TE": TemporalEdge,
        "_TNEW": tuple.__new__,
        "_FLUSH": _flush_v2v,
        "_CS": constraint_slices,
        "_WC": windows_compatible,
        "_PROP": propagate_run_windows,
        "_WT": windowed_times,
    }

    def run_of(a: str, b: str, lab: str) -> str:
        """The run matching query vertices *a* and *b* gives a query edge
        labeled *lab*."""
        a, b = f"vm[{a}]", f"vm[{b}]"
        return f"run({a}, {b}) if {lab} is None else ltg(({a}, {b}, {lab}), ())"

    w = _Writer()
    w.open("def _enumerate(ctx, sink, tables):")
    w.line(
        "(order, precs, seeds, lists, structure, closing, edges,"
        " hp, run, ltg, solve, dist) = tables"
    )
    w.line("stats = ctx.stats")
    w.line("deadline = ctx.deadline")
    w.line("accept = sink.accept")
    w.line('b_int = stats.filter("intersect")')
    w.line('b_inj = stats.filter("injectivity")')
    w.line('b_str = stats.filter("structure")')
    w.line('b_tmp = stats.filter("temporal")')
    w.line("mono = _MONO")
    w.line("Stop = _STOP")
    w.line("Mk = _MATCH")
    w.line("TE = _TE")
    w.line("tnew = _TNEW")
    w.line("wc = _WC")
    w.line("cs = _CS")
    w.line("prop = _PROP")
    w.line("wt = _WT")
    # Per-plan values the nested functions read, hoisted into entry
    # locals.
    for pos in range(n):
        w.line(f"u{pos} = order[{pos}]")
        w.line(f"fv{pos} = structure[{pos}]")
        w.line(f"ck{pos} = closing[{pos}]")
        w.line(f"s{pos} = seeds[{pos}]")
        if pos:
            w.line(f"p{pos} = precs[{pos}]")
            w.line(f"l{pos} = lists[{pos}]")
    for e in range(m):
        w.line(f"ea{e}, eb{e}, el{e} = edges[{e}]")
    w.line(f"vm = [0] * {n}")
    w.line("used = set()")
    w.line("used_add = used.add")
    w.line("used_discard = used.discard")
    counters = [
        "cand_n",
        "val_n",
        "nodes_n",
        "match_n",
        "inj_c",
        "inj_p",
        "str_c",
        "str_p",
        "tmp_c",
        "tmp_p",
        "join_c",
        "join_p",
    ]
    for name in counters:
        w.line(f"{name} = 0")
    w.line(f"fails = [0] * {n + 2}")
    # Per layer, the base members the candidate lists skipped.
    w.line(f"skp = [0] * {n + 2}")
    # Position 0 is always a seed: its candidates are the root's NLF set,
    # or a partition's slice of it.
    w.open("if ctx.partition is not None:")
    w.line("root_seed = _PART_SLICE(s0, ctx.partition)")
    w.close()
    w.open("else:")
    w.line("root_seed = s0")
    w.close()

    nonlocal_decl = "nonlocal " + ", ".join(counters)

    # Leaf: joint timestamp enumeration over the complete embedding.
    w.open("def leaf():")
    w.line("nonlocal match_n, join_c, join_p")
    _deadline_check(w)
    for e in range(m):
        w.line(f"r{e} = {run_of(f'ea{e}', f'eb{e}', f'el{e}')}")
    run_names = ", ".join(f"r{e}" for e in range(m))
    total_len = " + ".join(f"len(r{e})" for e in range(m)) or "0"
    w.line(f"wins = prop([{run_names}], dist)")
    w.open("if wins is None:")
    w.line(f"stats.timestamps_skipped += {total_len}")
    w.line("join_c += 1")
    w.line("join_p += 1")
    w.line(f"fails[{n}] += 1")
    w.line("return")
    w.close()
    opts = ", ".join(f"wt(r{e}, wins[{e}], stats)" for e in range(m))
    w.line(f"opts = [{opts}]")
    w.line("join_c += 1")
    w.line("produced = False")
    verts = ", ".join(f"vm[{u}]" for u in range(n))
    vtrailing = "," if n == 1 else ""
    w.line(f"fm = ({verts}{vtrailing})")
    w.open("for times in solve(opts):")
    w.line("produced = True")
    w.line("match_n += 1")
    # Matches and their edges are named tuples built through
    # tuple.__new__ directly, skipping their Python-level __new__.
    edge_tuples = [
        f"tnew(TE, (fm[ea{e}], fm[eb{e}], times[{e}]))" for e in range(m)
    ]
    etrailing = "," if m == 1 else ""
    w.line(f"accept(tnew(Mk, (({', '.join(edge_tuples)}{etrailing}), fm)))")
    w.close()
    w.open("if not produced:")
    w.line("join_p += 1")
    w.line(f"fails[{n}] += 1")
    w.close()
    w.close()  # def leaf

    for pos in range(n):
        fail = f"fails[{pos + 1}] += 1"

        def reject(counter: str) -> None:
            """Count a pruned candidate and leave its checks' loop."""
            w.line(f"{counter} += 1")
            w.line(fail)
            w.line("break")

        w.open(f"def d{pos}():")
        w.line(nonlocal_decl)
        _deadline_check(w)
        w.line("nodes_n += 1")
        w.line("produced = False")
        if pos == 0:
            # A seed iterates its own candidate set: nothing to skip.
            w.open("for v in root_seed:")
            _deadline_check(w)
        else:
            # The prec's candidate list: survivors in base order, their
            # base indices and the base length.  The index gaps are the
            # skipped non-candidates.  A later seed's list is its whole
            # candidate set.
            w.open(f"if p{pos} is None:")
            w.line(f"sv = s{pos}")
            w.line("size = len(sv)")
            w.line("ix = range(size)")
            w.close()
            w.open("else:")
            w.line(f"sv, ix, size = l{pos}[vm[p{pos}]]")
            w.close()
            w.line("nxt = 0")
            w.open("for i, v in zip(ix, sv):")
            _deadline_check(w)
            w.line(f"skp[{pos + 1}] += i - nxt")
            w.line("nxt = i + 1")
        # Every generated candidate is one the intersect considers, so
        # the flush credits cand_n to both.
        w.line("cand_n += 1")
        w.line("inj_c += 1")
        w.open("if v in used:")
        w.line("inj_p += 1")
        w.line(fail)
        w.line("continue")
        w.close()
        w.line("val_n += 1")
        w.line("str_c += 1")
        # The checks are loops that break on a failure, each followed by
        # the rest of the body in its ``else``.
        w.open(f"for fw, fo, fi in fv{pos}:")
        w.line("dw = vm[fw]")
        w.open("if fo and not hp(v, dw) or fi and not hp(dw, v):")
        reject("str_p")
        w.close()
        w.close()
        w.open("else:")
        w.line(f"vm[u{pos}] = v")
        w.line("tmp_c += 1")
        # The existential window check of each closing constraint, over
        # the runs bound to ``e_ts`` and ``l_ts``.
        w.open(f"for ce, cl, gap in ck{pos}:")
        w.line("a, b, x = edges[ce]")
        w.line(f"e_ts = {run_of('a', 'b', 'x')}")
        w.line("a, b, x = edges[cl]")
        w.line(f"l_ts = {run_of('a', 'b', 'x')}")
        w.line("e_ts, l_ts = cs(e_ts, l_ts, gap, stats)")
        w.open("if not wc(e_ts, l_ts, gap):")
        reject("tmp_p")
        w.close()
        w.close()
        w.open("else:")
        w.line("produced = True")
        w.line("used_add(v)")
        w.line("leaf()" if pos + 1 == n else f"d{pos + 1}()")
        w.line("used_discard(v)")
        w.close()  # else (closing)
        w.close()  # else (structure)
        w.close()  # for v
        if pos:
            w.line(f"skp[{pos + 1}] += size - nxt")
        w.open("if not produced:")
        w.line(fail)
        w.close()
        w.close()  # def d{pos}

    w.open("try:")
    w.line("d0()")
    w.close()
    w.open("finally:")
    w.line("stats.candidates_generated += cand_n")
    w.line("stats.validations += val_n")
    w.line("stats.nodes_expanded += nodes_n")
    w.line("stats.matches += match_n")
    w.line("b_int.considered += cand_n")
    w.line("b_inj.considered += inj_c")
    w.line("b_inj.pruned += inj_p")
    w.line("b_str.considered += str_c")
    w.line("b_str.pruned += str_p")
    w.line("b_tmp.considered += tmp_c")
    w.line("b_tmp.pruned += tmp_p")
    # The bucket opens at the first leaf, so a search that never
    # reaches one must not create it.
    w.open("if join_c:")
    w.line('b_join = stats.filter("timestamp-join")')
    w.line("b_join.considered += join_c")
    w.line("b_join.pruned += join_p")
    w.close()
    w.line("_FLUSH(stats, fails, skp)")
    w.close()
    w.close()  # def _enumerate
    return w.source(), ns


# ----------------------------------------------------------------------
# shape enumerators: one compiled search per query shape
# ----------------------------------------------------------------------


#: Shape enumerators by key: ``("v2v", n, m)`` for V2V, ``("e2e", m)``
#: and ``("eve", m)`` for E2E and EVE.  Entries live as long as the
#: process, so the cache is bounded by the shapes it meets.  No lock: two
#: threads racing to compile one shape both compile, and ``setdefault``
#: publishes one (a lock held across a process pool's ``fork()`` could
#: deadlock the child).
_SHAPES: dict[tuple[str | int, ...], ShapeEntry] = {}  # reprolint: disable=R016 -- grow-only, published by setdefault


def _shape_key(tables: Tables) -> tuple[str | int, ...]:
    """What the shape enumerator of *tables*' plan is written for.

    V2V unrolls its leaf over the vertices, so its key holds the vertex
    count; E2E and EVE read it, and each position's kind, at run time.
    """
    if isinstance(tables, V2VTables):
        return ("v2v", len(tables.order), len(tables.edges))
    return ("e2e" if tables.vmatch is None else "eve", len(tables.order))


def shape_enumerator(tables: Tables) -> ShapeEntry:
    """The enumerator every plan of *tables*' shape shares.

    ``entry(ctx, sink, tables)`` pushes the plan's matches into *sink*,
    lets a satisfied sink's :class:`StopEnumeration` propagate and adds
    its counters to ``ctx.stats``.  Compiled on the shape's first
    request and kept for the life of the process, with its source in
    :mod:`linecache` under ``<repro-shape:v2v/{n}/{m}>``,
    ``<repro-shape:e2e/{m}>`` or ``<repro-shape:eve/{m}>``.
    """
    key = _shape_key(tables)
    entry = _SHAPES.get(key)
    if entry is not None:
        return entry
    if isinstance(tables, V2VTables):
        source, ns = _compile_v2v(len(tables.order), len(tables.edges))
    else:
        source, ns = _compile_e2e(len(tables.order), tables.vmatch is not None)
    filename = "<repro-shape:" + "/".join(map(str, key)) + ">"
    exec(compile(source, filename, "exec"), ns)  # noqa: S102 - confined to this module by reprolint R020
    entry = cast(ShapeEntry, ns.pop("_enumerate"))
    linecache.cache[filename] = (  # type: ignore[assignment]
        len(source), None, _SourceLines(source), filename
    )
    return _SHAPES.setdefault(key, entry)
