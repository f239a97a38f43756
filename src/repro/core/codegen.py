"""Generated enumerators: the only code that runs the paper's searches.

V2V (Algorithm 2), E2E (Algorithm 4) and EVE (Algorithm 5) are each
written once, here, by one writer with two modes (:func:`_compile_v2v`,
:func:`_compile_e2e`).  A prepared plan's values (its matching order,
each position's bound/unbound split, the constraint gaps, the
STN-closure window coefficients, the candidate indexes) sit in the
plan's tables (:class:`V2VTables`, :class:`E2ETables`).

*Shape mode* emits the search for every plan of one shape, reading
those values from the tables passed as the entry's third argument:
:func:`shape_enumerator` compiles it once per shape per process, and a
plan runs it until ``compile()`` gives it a plan-mode enumerator.  A
V2V shape is the query's vertex and edge counts; an E2E or EVE shape is
its edge count alone, each position's kind (seed / extend-out /
extend-in / closing edge) being a run-time branch.  A shape compile is
not a plan compile: the listener below never sees it.

*Plan mode* (``MatchOptions(codegen=True)``, or a service plan on its
first reuse) emits the same search with the tables inlined, so in it:

* the DFS is unrolled into one nested function per matching position
  (in shape mode too);
* each position's candidate source is the single branch its statically
  known bound-endpoint pattern selects — the other three branches are
  gone, as are the run-time kind and label tests;
* temporal-constraint checks are unrolled with the gap inlined as a
  constant and the current timestamp substituted symbolically;
* STN-closure window bounds are inlined as constants and the feasible
  ``[lo, hi]`` slice of each sorted timestamp run is taken by direct
  bisection on the snapshot's memoryview runs.

In both modes:

* E2E/EVE positions iterate the candidate-space slot index
  (:mod:`repro.core.candidate_space`): a slot id reads the neighbour and
  its timestamp run straight off the snapshot's flat CSR planes, with no
  non-candidate neighbour scanned and no checked accessor called;
* V2V positions iterate the prec's candidate list from the same module
  (survivors, their neighbour-run indices, the run length), crediting
  the skipped non-candidates in bulk, and probe pairs and runs through
  its unchecked out-plane readers;
* planes, slot indexes and label constants are closed over as
  entry-function locals, so the hot loop never touches a module dict;
* all ``SearchStats`` counters accumulate in local integers flushed in a
  ``finally`` block — bit-identical totals in both modes, even when a
  satisfied sink raises :class:`StopEnumeration` mid-search.

Matches are pushed through the existing :class:`ResultSink` protocol, so
limit / top-k / count modes work unchanged, and plan mode keeps every
counter of shape mode exactly (the equivalence grid in
``tests/core/test_codegen_equivalence.py`` pins match multisets *and*
pruning totals).  A query plan mode does not support (currently: an
edgeless V2V query) keeps its shape enumerator silently —
``compile_enumerator`` returns ``None``.

``compile``/``exec`` of generated source is confined to this module by
reprolint rule R020.  To inspect what was generated, register a debug
listener::

    from repro.core import codegen

    codegen.set_codegen_listener(lambda plan: print(plan.source))

or read ``matcher.compiled_source`` after ``prepare()``.  Generated
sources are also registered with :mod:`linecache` for as long as their
entry function lives, so tracebacks out of a compiled enumerator show
real source lines and a dropped plan takes its source with it (a shape
enumerator, which lives as long as the process, keeps its source as
long).
"""

from __future__ import annotations

import bisect
import itertools
import linecache
import math
import threading
import time
import weakref
from collections.abc import Callable, Hashable, Iterator, Mapping, Sequence
from dataclasses import dataclass
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
    "CompiledPlan",
    "E2ETables",
    "V2VTables",
    "compile_enumerator",
    "set_codegen_listener",
    "shape_enumerator",
]

#: Signature of the generated entry point.
EntryFunction = Callable[[RunContext, ResultSink], None]

#: Debug hook signature: called once per successful compilation.
DebugListener = Callable[["CompiledPlan"], None]

_LISTENER: DebugListener | None = None  # reprolint: disable=R016 -- debug hook, swapped only from tests/tooling


def set_codegen_listener(listener: DebugListener | None) -> None:
    """Register *listener* to observe every successful compilation.

    The listener receives the :class:`CompiledPlan` (including its full
    generated source) right before ``compile_enumerator`` returns.  Pass
    ``None`` to remove it.  This is the debug hook documented in
    ``docs/CODEGEN.md``; it is not meant for production use.
    """
    global _LISTENER
    _LISTENER = listener


@dataclass(frozen=True)
class CompiledPlan:
    """One specialized enumerator: the generated source and its entry.

    ``entry(ctx, sink)`` has exactly the contract of the matcher's
    ``_run_sink`` — it reads the prepared plan's tables through a
    default argument, pushes matches into *sink*,
    lets a satisfied sink's :class:`StopEnumeration` propagate, and
    leaves bit-identical counters on ``ctx.stats``.
    """

    algorithm: str
    source: str
    entry: EntryFunction


class _SourceLines(Sequence[str]):
    """The :mod:`linecache` lines of one generated source, split on read.

    linecache wants a list of lines; this view over the plan's own
    source string keeps a live plan's source in memory once.  Only a
    traceback or a debugger reads it, a few lines at a time.
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


def _num(value: float) -> str:
    """Inline a numeric constant into generated source.

    An unbounded constraint gap is ``math.inf``, whose ``repr`` is not a
    Python name.
    """
    return repr(value) if math.isfinite(value) else f"float({repr(value)!r})"


def _deadline_check(w: _Writer) -> None:
    w.open("if deadline is not None and mono() > deadline:")
    w.line("stats.budget_exhausted = True")
    w.line("stats.deadline_hit = True")
    w.line("raise Stop")
    w.close()


# ----------------------------------------------------------------------
# E2E / EVE generation (Algorithms 4 / 5): one writer, per plan or per
# query shape
# ----------------------------------------------------------------------


class E2ETables(NamedTuple):
    """A prepared E2E/EVE plan, as its enumerators read it.

    Per matching position: the query edge it binds, its kind (``SEED``,
    ``OUT``, ``IN`` or ``CLOSE``; see :mod:`repro.core.candidate_space`),
    its slot index (None at a seed), its seed pairs (None unless a
    seed), its window bounds, the constraints checked there and, for
    EVE, its Vmatch look-ahead: per newly bound endpoint whose BN needs
    labels, ``(is the edge's target, labels)`` (``vmatch`` is None for
    E2E).  Per query edge: ``(source, target, label or None)``.  Then
    the query's vertex count and the snapshot's flat planes, per-label
    run getter and label signatures.
    """

    order: tuple[int, ...]
    kinds: tuple[str, ...]
    slots: tuple[Mapping[int, Any] | None, ...]
    seeds: tuple[frozenset[tuple[int, int]] | None, ...]
    windows: tuple[WindowBounds, ...]
    checks: tuple[tuple[Constraint, ...], ...]
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


def _compile_e2e(
    m: int, eve: bool, plan: E2ETables | None = None
) -> tuple[str, dict[str, Any]]:
    """Write an E2E (with *eve*, EVE) enumerator for *plan*, or for every
    plan with *m* query edges.

    Both modes emit the same DFS, one nested function per position, and
    the same candidate sources, time loop, candidate body, leaf,
    counters and flush.  *Plan mode* emits each position's one candidate
    source and inlines its query edge, endpoints, window bounds,
    constraint gaps and Vmatch labels as constants, reading its tables
    through a default argument.  *Shape mode* (``plan=None``) reads
    each of those from the tables the entry takes as its third argument:
    a later position's kind becomes a run-time branch over the four
    sources, an edge label a run-time choice between the plane and the
    per-label index, and the window bounds, constraint checks and
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

    def edge_at(pos: int) -> str:
        """The query edge bound at *pos*."""
        return f"e{pos}" if plan is None else str(plan.order[pos])

    def ends(pos: int) -> tuple[str, str]:
        """The query endpoints of the edge bound at *pos*."""
        if plan is None:
            return f"qa{pos}", f"qb{pos}"
        a, b, _ = plan.edges[plan.order[pos]]
        return str(a), str(b)

    def labelled(pos: int) -> bool:
        """May the edge bound at *pos* carry a label?"""
        return plan is None or plan.edges[plan.order[pos]][2] is not None

    def windowed(pos: int) -> bool:
        """May an earlier position bound the timestamp at *pos*?"""
        return pos > 0 and (plan is None or bool(plan.windows[pos]))

    w = _Writer()
    if plan is None:
        w.open("def _enumerate(ctx, sink, tables):")
    else:
        ns["_PLAN"] = plan
        w.open("def _enumerate(ctx, sink, tables=_PLAN):")
    # The snapshot's flat planes: slot k names a neighbour (o/inb[k]) and
    # the run o/itm[o/itoff[k] : o/itoff[k + 1]].
    w.line(
        "(order, kinds, slots, seeds, windows, checks, vmatch, edges, n,"
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
    # locals: only those plan mode does not inline.
    for pos in range(m):
        if plan is None:
            w.line(f"e{pos} = order[{pos}]")
            w.line(f"qa{pos}, qb{pos}, el{pos} = edges[e{pos}]")
            if pos:
                w.line(f"kd{pos} = kinds[{pos}]")
                w.line(f"w{pos} = windows[{pos}]")
            w.line(f"c{pos} = checks[{pos}]")
            if eve:
                w.line(f"vl{pos} = vmatch[{pos}]")
        elif labelled(pos):
            w.line(f"el{pos} = edges[{plan.order[pos]}][2]")
        if pos and (plan is None or plan.kinds[pos] != SEED):
            w.line(f"slots{pos} = slots[{pos}]")
        if pos and (plan is None or plan.kinds[pos] == SEED):
            w.line(f"pairs{pos} = seeds[{pos}]")
        if plan is not None and plan.vmatch is not None:
            # Label objects are arbitrary hashables, so they travel
            # through the tables rather than being ``repr``-inlined.
            for i, (_, labels) in enumerate(plan.vmatch[pos]):
                for j in range(len(labels)):
                    w.line(f"wl{pos}_{i}_{j} = vmatch[{pos}][{i}][1][{j}]")
    if plan is None:
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
        "tmp_p",
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
        if plan is None:
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
            return
        for other, hi_add, lo_sub in plan.windows[pos]:
            w.line(f"t_o = et[{other}]")
            if hi_add < math.inf:
                w.line(f"b = t_o + {_num(hi_add)}")
                w.open("if b < hi:")
                w.line("hi = b")
                w.close()
            if lo_sub < math.inf:
                w.line(f"b = t_o - {_num(lo_sub)}")
                w.open("if b > lo:")
                w.line("lo = b")
                w.close()

    def emit_vmatch(pos: int, u: str, v: str) -> None:
        """Vmatch for one candidate pair, hoisted out of its timestamp loop.

        The look-ahead depends on the pair's data vertices only, so it
        is evaluated once per pair into ``vfail``; every timestamp that
        reaches it still counts once, so the counters do not change.
        """
        if plan is None:
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
            return
        assert plan.vmatch is not None
        for i, (on_b, labels) in enumerate(plan.vmatch[pos]):
            if i:
                w.open("if not vfail:")
            w.line(f"nc = sig({v if on_b else u})")
            cond = " or ".join(
                f"wl{pos}_{i}_{j} not in nc" for j in range(len(labels))
            )
            w.line(f"vfail = {cond}")
            if i:
                w.close()

    def emit_leaf() -> None:
        """Count and emit the complete match."""
        _deadline_check(w)
        w.line("match_n += 1")
        if plan is None:
            pairs = [(f"ea{e}", f"eb{e}") for e in range(m)]
            verts = "tuple(vm)"
        else:
            pairs = [(str(a), str(b)) for a, b, _ in plan.edges]
            n = plan.num_vertices
            verts = "(" + ", ".join(f"vm[{u}]" for u in range(n))
            verts += ",)" if n == 1 else ")"
        edges = ", ".join(
            f"tnew(TE, (vm[{a}], vm[{b}], et[{e}]))"
            for e, (a, b) in enumerate(pairs)
        )
        trailing = "," if m == 1 else ""
        w.line(f"accept(tnew(Mk, (({edges}{trailing}), {verts})))")

    def emit_candidate_body(
        pos: int, u: str, v: str, new_a: bool, new_b: bool
    ) -> None:
        """The per-timestamp candidate validation + bind + recurse block."""
        fail = f"fails[{pos + 1}] += 1"
        e = edge_at(pos)
        qa, qb = ends(pos)
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
        w.line(f"et[{e}] = t")
        w.line("tmp_c += 1")
        # A shape's checks are a loop that breaks on a failure, followed
        # by the rest of the body in its ``else``.
        loops = 0
        if plan is None:
            w.open(f"for ce, cl, gap in c{pos}:")
            w.line("d = et[cl] - et[ce]")
            w.open("if d < 0 or d > gap:")
            w.line("tmp_p += 1")
            w.line(fail)
            w.line("break")
            w.close()
            w.close()
            w.open("else:")
            loops += 1
        else:
            for c in plan.checks[pos]:
                later = "t" if c.later == plan.order[pos] else f"et[{c.later}]"
                earlier = (
                    "t" if c.earlier == plan.order[pos] else f"et[{c.earlier}]"
                )
                w.line(f"d = {later} - {earlier}")
                w.open(f"if d < 0 or d > {_num(c.gap)}:")
                w.line("tmp_p += 1")
                w.line(fail)
                w.line("continue")
                w.close()
        if eve:
            w.line("vm_c += 1")
            if plan is None or (plan.vmatch and plan.vmatch[pos]):
                w.open("if vfail:")
                w.line("vm_p += 1")
                w.line(fail)
                w.line("continue")
                w.close()
        if new_a:
            w.line(f"vm[{qa}] = {u}")
            w.line(f"used_add({u})")
        if new_b:
            w.line(f"vm[{qb}] = {v}")
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
        for _ in range(loops):
            w.close()

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
        seed = new_a and new_b
        if labelled(pos):
            if plan is None:
                w.open(f"if el{pos} is None:")
                if seed:
                    w.line("k = bl(onb, dv, ooff[du], ooff[du + 1])")
                w.line(f"ts = {plane}tm")
                w.line(f"s0 = {plane}toff[k]")
                w.line(f"s1 = {plane}toff[k + 1]")
                w.close()
                w.open("else:")
            w.line(f"ts = ltg(({u}, {v}, el{pos}), ())")
            w.line("s0 = 0")
            w.line("s1 = len(ts)")
            if plan is None:
                w.close()
            times = "ts"
        else:
            if seed:
                w.line("k = bl(onb, dv, ooff[du], ooff[du + 1])")
            w.line(f"s0 = {plane}toff[k]")
            w.line(f"s1 = {plane}toff[k + 1]")
            times = f"{plane}tm"
        if eve:
            emit_vmatch(pos, u, v)
        if windowed(pos):
            w.line(f"i0 = bl({times}, lo, s0, s1)")
            w.line(f"i1 = br({times}, hi, i0, s1)")
            w.line("exp_n += i1 - i0")
            w.line("skp_n += s1 - s0 - (i1 - i0)")
            w.open(f"for t in {times}[i0:i1]:")
        else:
            w.line("exp_n += s1 - s0")
            w.open(f"for t in {times}[s0:s1]:")
        emit_candidate_body(pos, u, v, new_a, new_b)
        w.close()

    def emit_source(pos: int, kind: str) -> None:
        """Position *pos*'s candidates when it is of *kind*."""
        qa, qb = ends(pos)
        if kind == OUT:
            w.line(f"da = vm[{qa}]")
            w.open(f"for k in slots{pos}[da]:")
            w.line("x = onb[k]")
            w.open("if x in used:")
            w.line("continue")
            w.close()
            emit_time_loop(pos, "da", "x", "o", False, True)
            w.close()
        elif kind == IN:
            w.line(f"db = vm[{qb}]")
            w.open(f"for k in slots{pos}[db]:")
            w.line("x = inb[k]")
            w.open("if x in used:")
            w.line("continue")
            w.close()
            emit_time_loop(pos, "x", "db", "i", True, False)
            w.close()
        elif kind == CLOSE:
            w.line(f"da = vm[{qa}]")
            w.line(f"db = vm[{qb}]")
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
        if windowed(pos):
            emit_window(pos)
            w.open("if lo <= hi:")
        if plan is not None:
            emit_source(pos, plan.kinds[pos])
        elif pos == 0:
            emit_source(pos, SEED)
        else:
            for i, kind in enumerate((OUT, IN, CLOSE)):
                w.open(f"{'elif' if i else 'if'} kd{pos} == {kind!r}:")
                emit_source(pos, kind)
                w.close()
            w.open("else:")
            emit_source(pos, SEED)
            w.close()
        if windowed(pos):
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
    w.line("b_tmp.pruned += tmp_p")
    if eve:
        w.line("b_vm.considered += vm_c")
        w.line("b_vm.pruned += vm_p")
    w.line("_FLUSH_FAILS(stats, fails)")
    w.close()
    w.close()  # def _enumerate
    return w.source(), ns


# ----------------------------------------------------------------------
# V2V generation (Algorithm 2): one writer, per plan or per query shape
# ----------------------------------------------------------------------


class V2VTables(NamedTuple):
    """A prepared V2V plan, as its enumerators read it.

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

#: Signature of a shape enumerator: a plan entry plus the plan's tables.
ShapeEntry = Callable[[RunContext, ResultSink, Tables], None]


def _compile_v2v(
    n: int, m: int, plan: V2VTables | None = None
) -> tuple[str, dict[str, Any]]:
    """Write a V2V enumerator for *plan*, or for every plan of its shape.

    Both modes emit the same DFS, one nested function per position, and
    the same candidate body, leaf, counters and flush.  *Plan mode*
    inlines the plan's vertices, precs, checks and edge labels as
    constants and reads its tables through a default argument.  *Shape
    mode* (``plan=None``) reads each of those values from the tables the
    entry takes as its third argument: seed versus extension and labeled
    versus unlabeled run become run-time branches, and the FV checks and
    closing constraints short loops.  Returns the source and the
    namespace to execute it in.
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

    def vertex(pos: int) -> str:
        """The query vertex matched at *pos*."""
        return f"u{pos}" if plan is None else str(plan.order[pos])

    def edge(e: int) -> tuple[str, str, str | None]:
        """Query edge *e*'s endpoints and the name holding its label
        (None: an edge plan mode knows to be unlabeled)."""
        if plan is None:
            return f"ea{e}", f"eb{e}", f"el{e}"
        a, b, lab = plan.edges[e]
        return str(a), str(b), None if lab is None else f"el{e}"

    def is_seed(pos: int) -> bool:
        """Is *pos* a seed in every plan this enumerator serves?  (The
        root always is; in shape mode a later seed is a run-time branch.)"""
        return pos == 0 or (plan is not None and plan.prec[pos] is None)

    def run_of(a: str, b: str, lab: str | None) -> str:
        """The run matching query vertices *a* and *b* gives a query edge
        labeled *lab*."""
        a, b = f"vm[{a}]", f"vm[{b}]"
        pair = f"run({a}, {b})"
        if lab is None:
            return pair
        by_label = f"ltg(({a}, {b}, {lab}), ())"
        if plan is not None:
            return by_label
        return f"{pair} if {lab} is None else {by_label}"

    w = _Writer()
    if plan is None:
        w.open("def _enumerate(ctx, sink, tables):")
    else:
        ns["_PLAN"] = plan
        w.open("def _enumerate(ctx, sink, tables=_PLAN):")
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
    # locals: only those plan mode does not inline.
    for pos in range(n):
        if plan is None:
            w.line(f"u{pos} = order[{pos}]")
            w.line(f"fv{pos} = structure[{pos}]")
            w.line(f"ck{pos} = closing[{pos}]")
        if plan is None or is_seed(pos):
            w.line(f"s{pos} = seeds[{pos}]")
        if not is_seed(pos):
            if plan is None:
                w.line(f"p{pos} = precs[{pos}]")
            w.line(f"l{pos} = lists[{pos}]")
    for e in range(m):
        if plan is None:
            w.line(f"ea{e}, eb{e}, el{e} = edges[{e}]")
        elif edge(e)[2] is not None:
            w.line(f"el{e} = edges[{e}][2]")
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
        w.line(f"r{e} = {run_of(*edge(e))}")
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
    edge_tuples = []
    for e in range(m):
        a, b, _ = edge(e)
        edge_tuples.append(f"tnew(TE, (fm[{a}], fm[{b}], times[{e}]))")
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

        def reject(counter: str, escape: str) -> None:
            """Count a pruned candidate and leave its checks by *escape*."""
            w.line(f"{counter} += 1")
            w.line(fail)
            w.line(escape)

        def window_check(gap: str, escape: str) -> None:
            """The existential window check of one closing constraint,
            over the runs bound to ``e_ts`` and ``l_ts``."""
            w.line(f"e_ts, l_ts = cs(e_ts, l_ts, {gap}, stats)")
            w.open(f"if not wc(e_ts, l_ts, {gap}):")
            reject("tmp_p", escape)
            w.close()

        w.open(f"def d{pos}():")
        w.line(nonlocal_decl)
        _deadline_check(w)
        w.line("nodes_n += 1")
        w.line("produced = False")
        seed = is_seed(pos)
        if seed:
            # A seed iterates its own candidate set: nothing to skip.
            w.open(f"for v in {'root_seed' if pos == 0 else f's{pos}'}:")
            _deadline_check(w)
        else:
            # The prec's candidate list: survivors in base order, their
            # base indices and the base length.  The index gaps are the
            # skipped non-candidates.
            if plan is None:
                w.open(f"if p{pos} is None:")
                w.line(f"sv = s{pos}")
                w.line("size = len(sv)")
                w.line("ix = range(size)")
                w.close()
                w.open("else:")
                w.line(f"sv, ix, size = l{pos}[vm[p{pos}]]")
                w.close()
            else:
                w.line(f"sv, ix, size = l{pos}[vm[{plan.prec[pos]}]]")
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
        reject("inj_p", "continue")
        w.close()
        w.line("val_n += 1")
        w.line("str_c += 1")
        # A shape's checks are loops that break on a failure, each
        # followed by the rest of the body in its ``else``.
        loops = 0
        if plan is None:
            w.open(f"for fw, fo, fi in fv{pos}:")
            w.line("dw = vm[fw]")
            w.open("if fo and not hp(v, dw) or fi and not hp(dw, v):")
            reject("str_p", "break")
            w.close()
            w.close()
            w.open("else:")
            loops += 1
        else:
            for wv, need_uw, need_wu in plan.structure[pos]:
                if need_uw:
                    w.open(f"if not hp(v, vm[{wv}]):")
                    reject("str_p", "continue")
                    w.close()
                if need_wu:
                    w.open(f"if not hp(vm[{wv}], v):")
                    reject("str_p", "continue")
                    w.close()
        w.line(f"vm[{vertex(pos)}] = v")
        w.line("tmp_c += 1")
        if plan is None:
            w.open(f"for ce, cl, gap in ck{pos}:")
            w.line("a, b, x = edges[ce]")
            w.line(f"e_ts = {run_of('a', 'b', 'x')}")
            w.line("a, b, x = edges[cl]")
            w.line(f"l_ts = {run_of('a', 'b', 'x')}")
            window_check("gap", "break")
            w.close()
            w.open("else:")
            loops += 1
        else:
            for c in plan.closing[pos]:
                for name, e in (("e_ts", c.earlier), ("l_ts", c.later)):
                    w.line(f"{name} = {run_of(*edge(e))}")
                window_check(_num(c.gap), "continue")
        w.line("produced = True")
        w.line("used_add(v)")
        w.line("leaf()" if pos + 1 == n else f"d{pos + 1}()")
        w.line("used_discard(v)")
        for _ in range(loops):
            w.close()
        w.close()  # for v
        if not seed:
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
# one path into compiled code: shape enumerators and plan compiles
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


def _write(tables: Tables, inline: bool) -> tuple[str, dict[str, Any]]:
    """Write the enumerator of *tables*' shape, or with *inline* its plan's."""
    if isinstance(tables, V2VTables):
        return _compile_v2v(
            len(tables.order), len(tables.edges), tables if inline else None
        )
    return _compile_e2e(
        len(tables.order), tables.vmatch is not None, tables if inline else None
    )


def shape_enumerator(tables: Tables) -> ShapeEntry:
    """The enumerator every plan of *tables*' shape shares.

    ``entry(ctx, sink, tables)`` has the contract of a compiled plan's
    entry, reading the plan from its tables.  Compiled on the shape's
    first request and kept for the life of the process, with its source
    in :mod:`linecache` under ``<repro-shape:v2v/{n}/{m}>``,
    ``<repro-shape:e2e/{m}>`` or ``<repro-shape:eve/{m}>``.  It is not
    a plan compile: the codegen listener never sees it.
    """
    key = _shape_key(tables)
    entry = _SHAPES.get(key)
    if entry is not None:
        return entry
    filename = "<repro-shape:" + "/".join(map(str, key)) + ">"
    entry = cast(ShapeEntry, _load(*_write(tables, False), filename))
    return _SHAPES.setdefault(key, entry)


def _load(source: str, ns: dict[str, Any], filename: str) -> Callable[..., None]:
    """Execute generated *source* as *filename*; return its entry.

    The source is registered with :mod:`linecache` under *filename*, so
    tracebacks out of the entry show generated lines.
    """
    exec(compile(source, filename, "exec"), ns)  # noqa: S102 - confined to this module by reprolint R020
    # Popped so the namespace does not hold its own entry function: with
    # no ns -> entry -> ns cycle, a dropped plan (and the candidate index
    # its namespace closes over) is freed at once, not at the next full
    # collection.
    entry = cast("Callable[..., None]", ns.pop("_enumerate"))
    linecache.cache[filename] = (  # type: ignore[assignment]
        len(source), None, _SourceLines(source), filename
    )
    return entry


#: Filename slots of live compiled plans.  CPython keeps every distinct
#: filename it has compiled code under for the life of the process, so a
#: fresh name per compile grows a long-lived service without bound.  A
#: plan takes a free slot and its finalizer returns it: live plans never
#: share a name, and the names ever used are bounded by the peak number
#: of live plans.
_SLOT_NUMBERS = itertools.count()
_FREE_SLOTS: list[int] = []
_SLOT_LOCK = threading.Lock()


def _take_slot() -> int:
    with _SLOT_LOCK:
        return _FREE_SLOTS.pop() if _FREE_SLOTS else next(_SLOT_NUMBERS)


def _finish(algorithm: str, source: str, ns: dict[str, Any]) -> CompiledPlan:
    slot = _take_slot()
    filename = f"<repro-codegen:{slot}>"
    entry = cast(EntryFunction, _load(source, ns, filename))
    # The source lines live as long as the entry function: a long-lived
    # service compiles without bound, and linecache is process-global.
    weakref.finalize(entry, _release_slot, slot, filename)
    plan = CompiledPlan(algorithm=algorithm, source=source, entry=entry)
    listener = _LISTENER
    if listener is not None:
        listener(plan)
    return plan


def _release_slot(slot: int, filename: str) -> None:
    """Drop a dead plan's source from linecache and free its slot."""
    linecache.cache.pop(filename, None)
    with _SLOT_LOCK:
        _FREE_SLOTS.append(slot)


def compile_enumerator(matcher: Any) -> CompiledPlan | None:
    """Compile a specialized enumerator for a *prepared* matcher.

    Dispatches on the type of the matcher's plan tables
    (:class:`E2ETables` or :class:`V2VTables`) rather than on concrete
    classes, so the matcher modules can import this one without a
    cycle.  Returns ``None`` (the plan keeps its shape enumerator) for
    matchers without tables and for edgeless V2V queries.
    """
    tables = getattr(matcher, "tables", None)
    if isinstance(tables, E2ETables) or (
        isinstance(tables, V2VTables) and tables.edges
    ):
        return _finish(matcher.name, *_write(tables, True))
    return None
