"""Per-plan specialized enumerator compilation (``MatchOptions(codegen=True)``).

The interpreted matchers walk generic TCQ/TCQ+ tables on every DFS step:
each layer re-reads the matching order, re-discovers which endpoints are
already bound, loops over the constraint tuples, and consults the window
plan through two levels of helper calls.  All of that is *static* for a
prepared plan — the order, the per-position bound/unbound split, the
constraint gaps and the STN-closure window coefficients are fixed the
moment ``prepare()`` finishes.  This module generates, per prepared
matcher, one specialized Python enumeration function in which:

* the DFS is unrolled into one nested function per matching position;
* each position's candidate source is the single branch its statically
  known bound-endpoint pattern selects (seed / extend-out / extend-in /
  closing edge) — the other three branches are gone, as are the
  ``is None`` boundness probes;
* temporal-constraint checks are unrolled with the gap inlined as a
  constant and the current timestamp substituted symbolically;
* STN-closure window bounds are inlined as constants and the feasible
  ``[lo, hi]`` slice of each sorted timestamp run is taken by direct
  bisection on the snapshot's memoryview runs;
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
  ``finally`` block — bit-identical totals to the interpreted path, even
  when a satisfied sink raises :class:`StopEnumeration` mid-search.

Matches are pushed through the existing :class:`ResultSink` protocol, so
limit / top-k / count modes work unchanged, and every counter the
interpreted matchers maintain is preserved exactly (the equivalence grid
in ``tests/core/test_codegen_equivalence.py`` pins match multisets *and*
pruning totals).  Shapes the generator does not support (currently:
edgeless V2V queries) fall back to the interpreted path silently —
``compile_enumerator`` returns ``None`` and the matcher keeps its
generic loop.

``compile``/``exec`` of generated source is confined to this module by
reprolint rule R020.  To inspect what was generated, register a debug
listener::

    from repro.core import codegen

    codegen.set_codegen_listener(lambda plan: print(plan.source))

or read ``matcher.compiled_source`` after ``prepare()``.  Generated
sources are also registered with :mod:`linecache` for as long as their
entry function lives, so tracebacks out of a compiled enumerator show
real source lines and a dropped plan takes its source with it.
"""

from __future__ import annotations

import bisect
import itertools
import linecache
import math
import threading
import time
import weakref
from collections.abc import Callable, Hashable, Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, cast, overload

from ..graphs import TemporalEdge

from .candidate_space import CLOSE, IN, OUT, SEED, pair_readers
from .match import Match
from .options import RunContext
from .partition import partition_slice
from .sinks import ResultSink, StopEnumeration
from .stats import SearchStats
from .timestamps import windows_compatible
from .windows import constraint_slices, propagate_run_windows, windowed_times

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .e2e import E2EMatcher
    from .v2v import V2VMatcher

__all__ = [
    "CompiledPlan",
    "compile_enumerator",
    "set_codegen_listener",
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

    ``entry(ctx, sink)`` has exactly the contract of the interpreted
    ``Matcher._run_sink`` — it closes over the prepared matcher's
    snapshot accessors and candidate sets, pushes matches into *sink*,
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
    with a nonzero count — the same value the interpreted path's
    incremental ``record_fail`` calls produce, independent of the order
    failures occurred in.
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
    """Inline a finite numeric constant into generated source."""
    return repr(value)


def _deadline_check(w: _Writer) -> None:
    w.open("if deadline is not None and mono() > deadline:")
    w.line("stats.budget_exhausted = True")
    w.line("stats.deadline_hit = True")
    w.line("raise Stop")
    w.close()


def _emit_window(
    w: _Writer, entries: Sequence[tuple[int, float, float]]
) -> None:
    """Inline ``feasible_window`` for one position's constant bounds."""
    w.line("lo = NINF")
    w.line("hi = PINF")
    for other, hi_add, lo_sub in entries:
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


# ----------------------------------------------------------------------
# E2E / EVE generation (Algorithm 4 / 5 specialized per position)
# ----------------------------------------------------------------------


def _vmatch_label_consts(
    matcher: "E2EMatcher", ns: dict[str, Any]
) -> dict[tuple[int, int], tuple[tuple[int, list[str]], ...]]:
    """Per (pos): for each vmatch entry, (query vertex, label alias names).

    Label objects are arbitrary hashables, so they travel through the
    exec namespace rather than being ``repr``-inlined.
    """
    plan: dict[tuple[int, int], tuple[tuple[int, list[str]], ...]] = {}
    if not matcher.vertex_prematching:
        return plan
    for pos, entries in enumerate(matcher._vmatch_plan):
        rendered: list[tuple[int, list[str]]] = []
        for i, (u, labels) in enumerate(entries):
            names: list[str] = []
            for k, label in enumerate(sorted(labels, key=repr)):
                name = f"_WL_{pos}_{i}_{k}"
                ns[name] = label
                names.append(name)
            rendered.append((u, names))
        plan[(pos, 0)] = tuple(rendered)
    return plan


def _compile_e2e(matcher: "E2EMatcher") -> CompiledPlan:
    query = matcher.query
    tcq = matcher.tcq_plus
    space = matcher.candidate_space
    assert tcq is not None and space is not None
    m = query.num_edges
    n = query.num_vertices
    graph = matcher._view
    window_plan = matcher._window_plan
    edge_labels = query.edge_labels
    kinds = space.kinds

    ns: dict[str, Any] = {
        "_SEEDS": space.seeds,
        "_ONB": graph.out_nbrs,
        "_OTOFF": graph.out_ts_offsets,
        "_OTM": graph.out_times,
        "_INB": graph.in_nbrs,
        "_ITOFF": graph.in_ts_offsets,
        "_ITM": graph.in_times,
        "_OOFF": graph.out_offsets,
        "_LTG": graph.label_runs.get,
        "_SIG": graph.label_signature,
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
    for pos, kind in enumerate(kinds):
        if kind != SEED:
            ns[f"_SLOTS_{pos}"] = space.slots[pos]
        elif pos:
            ns[f"_PAIRS_{pos}"] = space.seeds(pos)
    for e in range(m):
        if edge_labels[e] is not None:
            ns[f"_EL_{e}"] = edge_labels[e]
    vmatch_consts = _vmatch_label_consts(matcher, ns)

    w = _Writer()
    w.open("def _enumerate(ctx, sink):")
    w.line("stats = ctx.stats")
    w.line("deadline = ctx.deadline")
    w.line("accept = sink.accept")
    w.line('b_inj = stats.filter("injectivity")')
    w.line('b_tmp = stats.filter("temporal")')
    if matcher.vertex_prematching:
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
    # The snapshot's flat planes: slot k names a neighbour (o/inb[k]) and
    # the run o/itm[o/itoff[k] : o/itoff[k + 1]].
    w.line("onb = _ONB")
    w.line("otoff = _OTOFF")
    w.line("otm = _OTM")
    if IN in kinds:
        w.line("inb = _INB")
        w.line("itoff = _ITOFF")
        w.line("itm = _ITM")
    w.line("ooff = _OOFF")
    if query.has_edge_labels:
        w.line("ltg = _LTG")
    if matcher.vertex_prematching:
        w.line("sig = _SIG")
    for pos, kind in enumerate(kinds):
        if kind != SEED:
            w.line(f"slots{pos} = _SLOTS_{pos}")
        elif pos:
            w.line(f"pairs{pos} = _PAIRS_{pos}")
    for e in range(m):
        if edge_labels[e] is not None:
            w.line(f"el{e} = _EL_{e}")
    for (pos, _), entries in vmatch_consts.items():
        for i, (_, names) in enumerate(entries):
            for k, name in enumerate(names):
                w.line(f"wl{pos}_{i}_{k} = {name}")
    w.line(f"et = [0] * {m}")
    w.line(f"vm = [0] * {n}")
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
    if matcher.vertex_prematching:
        counters += ["vm_c", "vm_p"]
    for name in counters:
        w.line(f"{name} = 0")
    w.line(f"fails = [0] * {m + 2}")
    w.line("root_seed = _SEEDS(0, ctx.partition)")

    nonlocal_decl = "nonlocal " + ", ".join(counters)

    def emit_candidate_body(
        pos: int,
        e: int,
        u_expr: str,
        v_expr: str,
        seed: bool,
        new_a: bool,
        new_b: bool,
        qa: int,
        qb: int,
    ) -> None:
        """The per-timestamp candidate validation + bind + recurse block."""
        fail = f"fails[{pos + 1}] += 1"
        _deadline_check(w)
        w.line("cand_n += 1")
        w.line("val_n += 1")
        w.line("inj_c += 1")
        if seed:
            w.open(f"if {u_expr} == {v_expr}:")
            w.line("inj_p += 1")
            w.line(fail)
            w.line("continue")
            w.close()
        w.line(f"et[{e}] = t")
        w.line("tmp_c += 1")
        for c in tcq.check_at[pos]:
            later = "t" if c.later == e else f"et[{c.later}]"
            earlier = "t" if c.earlier == e else f"et[{c.earlier}]"
            w.line(f"d = {later} - {earlier}")
            w.open(f"if d < 0 or d > {c.gap}:")
            w.line("tmp_p += 1")
            w.line(fail)
            w.line("continue")
            w.close()
        if matcher.vertex_prematching:
            w.line("vm_c += 1")
            if vmatch_checked(pos):
                w.open("if vfail:")
                w.line("vm_p += 1")
                w.line(fail)
                w.line("continue")
                w.close()
        if new_a:
            w.line(f"vm[{qa}] = {u_expr}")
            w.line(f"used_add({u_expr})")
        if new_b:
            w.line(f"vm[{qb}] = {v_expr}")
            w.line(f"used_add({v_expr})")
        w.line("produced = True")
        if pos + 1 == m:
            _deadline_check(w)
            w.line("match_n += 1")
            edges = ", ".join(
                f"tnew(TE, (vm[{ea}], vm[{eb}], et[{idx}]))"
                for idx, (ea, eb) in enumerate(query.edges)
            )
            verts = ", ".join(f"vm[{u}]" for u in range(n))
            trailing = "," if m == 1 else ""
            vtrailing = "," if n == 1 else ""
            w.line(
                f"accept(tnew(Mk, (({edges}{trailing}), ({verts}{vtrailing}))))"
            )
        else:
            w.line(f"d{pos + 1}()")
        if new_a:
            w.line(f"used_discard({u_expr})")
        if new_b:
            w.line(f"used_discard({v_expr})")

    def vmatch_checked(pos: int) -> bool:
        """Does Vmatch at *pos* test any label?"""
        return any(names for _, names in vmatch_consts.get((pos, 0), ()))

    def emit_vmatch(pos: int, qa: int, u_expr: str, v_expr: str) -> None:
        """Vmatch for one candidate pair, hoisted out of its timestamp loop.

        The look-ahead depends on the pair's data vertices only, so it
        is evaluated once per pair into ``vfail``; every timestamp that
        reaches it still counts once, so the counters do not change.
        """
        first = True
        for i, (u, names) in enumerate(vmatch_consts.get((pos, 0), ())):
            if not names:
                continue
            if not first:
                w.open("if not vfail:")
            arg = u_expr if u == qa else v_expr
            w.line(f"nc = sig({arg})")
            cond = " or ".join(
                f"wl{pos}_{i}_{k} not in nc" for k in range(len(names))
            )
            w.line(f"vfail = {cond}")
            if not first:
                w.close()
            first = False

    def emit_time_loop(
        pos: int,
        e: int,
        u: str,
        v: str,
        plane: str,
        windowed: bool,
        new_a: bool,
        new_b: bool,
    ) -> None:
        """Slice slot k's run (or the pair's labeled run) to the window.

        *plane* is ``"o"`` or ``"i"``: which CSR plane slot ``k`` indexes.
        Labeled query edges take their run from the per-label index.
        *new_a* / *new_b* say which endpoints this position binds.
        """
        if edge_labels[e] is None:
            times = f"{plane}tm"
            w.line(f"s0 = {plane}toff[k]")
            w.line(f"s1 = {plane}toff[k + 1]")
            start, stop = "s0", "s1"
            stop_arg = ", s1"
        else:
            times = "ts"
            w.line(f"ts = ltg(({u}, {v}, el{e}), ())")
            start, stop = "0", "len(ts)"
            stop_arg = ""
        qa, qb = query.edge(e)
        if matcher.vertex_prematching:
            emit_vmatch(pos, qa, u, v)
        if windowed:
            w.line(f"i0 = bl({times}, lo, {start}{stop_arg})")
            w.line(f"i1 = br({times}, hi, i0{stop_arg})")
            w.line("exp_n += i1 - i0")
            w.line(f"skp_n += {stop} - {start} - (i1 - i0)")
            w.open(f"for t in {times}[i0:i1]:")
        else:
            w.line(f"exp_n += {stop} - {start}")
            w.open(f"for t in {times}[{start}:{stop}]:")
        emit_candidate_body(pos, e, u, v, new_a and new_b, new_a, new_b, qa, qb)
        w.close()

    for pos, e in enumerate(tcq.order):
        qa, qb = query.edge(e)
        kind = kinds[pos]
        w.open(f"def d{pos}():")
        w.line(nonlocal_decl)
        _deadline_check(w)
        w.line("nodes_n += 1")
        w.line("produced = False")
        entries = window_plan[pos]
        windowed = bool(entries)
        if windowed:
            _emit_window(w, entries)
            w.open("if lo <= hi:")
        if kind == OUT:
            w.line(f"da = vm[{qa}]")
            w.open(f"for k in slots{pos}[da]:")
            w.line("x = onb[k]")
            w.open("if x in used:")
            w.line("continue")
            w.close()
            emit_time_loop(pos, e, "da", "x", "o", windowed, False, True)
            w.close()
        elif kind == IN:
            w.line(f"db = vm[{qb}]")
            w.open(f"for k in slots{pos}[db]:")
            w.line("x = inb[k]")
            w.open("if x in used:")
            w.line("continue")
            w.close()
            emit_time_loop(pos, e, "x", "db", "i", windowed, True, False)
            w.close()
        elif kind == CLOSE:
            w.line(f"da = vm[{qa}]")
            w.line(f"db = vm[{qb}]")
            w.line(f"k = slots{pos}[da].get(db, -1)")
            w.open("if k >= 0:")
            emit_time_loop(pos, e, "da", "db", "o", windowed, False, False)
            w.close()
        else:
            # Seed edge of a (possibly disconnected) component; only the
            # root position honours the partition slice.
            seed_iter = "root_seed" if pos == 0 else f"pairs{pos}"
            w.open(f"for du, dv in {seed_iter}:")
            if pos != 0:
                # At the root nothing is bound yet: the used-check is a
                # statically dead branch and is elided.
                w.open("if du in used or dv in used:")
                w.line("continue")
                w.close()
            if edge_labels[e] is None:
                # The seed's out-slot: one bisect of its source's run.
                w.line("k = bl(onb, dv, ooff[du], ooff[du + 1])")
            emit_time_loop(pos, e, "du", "dv", "o", windowed, True, True)
            w.close()
        if windowed:
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
    if matcher.vertex_prematching:
        w.line("b_vm.considered += vm_c")
        w.line("b_vm.pruned += vm_p")
    w.line("_FLUSH_FAILS(stats, fails)")
    w.close()
    w.close()  # def _enumerate

    return _finish(matcher.name, w.source(), ns)


# ----------------------------------------------------------------------
# V2V generation (Algorithm 2 specialized per position)
# ----------------------------------------------------------------------


def _compile_v2v(matcher: "V2VMatcher") -> CompiledPlan | None:
    query = matcher.query
    tcq = matcher.tcq
    candidates = matcher.candidates
    lists = matcher.candidate_lists
    assert tcq is not None and candidates is not None and lists is not None
    m = query.num_edges
    n = query.num_vertices
    if m == 0 or n == 0:
        return None  # degenerate shapes keep the interpreted path
    graph = matcher._view
    edge_labels = query.edge_labels
    edge_endpoints = query.edges
    has_pair, pair_run = pair_readers(graph)

    ns: dict[str, Any] = {
        "_PART_SLICE": partition_slice,
        "_HP": has_pair,
        "_RUN": pair_run,
        "_LTG": graph.label_runs.get,
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
        "_SOLVE": matcher._solver.assignments,
        "_DIST": matcher._dist,
    }
    for pos, u in enumerate(tcq.order):
        if lists[pos] is None:
            ns[f"_CANDS_{u}"] = candidates[u]
        else:
            ns[f"_LISTS_{pos}"] = lists[pos]
    for e in range(m):
        if edge_labels[e] is not None:
            ns[f"_EL_{e}"] = edge_labels[e]

    w = _Writer()
    w.open("def _enumerate(ctx, sink):")
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
    # Unchecked pair readers over the snapshot's out-plane.
    w.line("hp = _HP")
    w.line("run = _RUN")
    if query.has_edge_labels:
        w.line("ltg = _LTG")
    w.line("wc = _WC")
    w.line("cs = _CS")
    w.line("prop = _PROP")
    w.line("wt = _WT")
    w.line("dist = _DIST")
    w.line("solve = _SOLVE")
    for pos, u in enumerate(tcq.order):
        if lists[pos] is None:
            w.line(f"cands{u} = _CANDS_{u}")
        else:
            w.line(f"lists{pos} = _LISTS_{pos}")
    for e in range(m):
        if edge_labels[e] is not None:
            w.line(f"el{e} = _EL_{e}")
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
    root_vertex = tcq.order[0]
    w.open("if ctx.partition is not None:")
    w.line(f"root_seed = _PART_SLICE(cands{root_vertex}, ctx.partition)")
    w.close()
    w.open("else:")
    w.line(f"root_seed = cands{root_vertex}")
    w.close()

    nonlocal_decl = "nonlocal " + ", ".join(counters)

    def emit_run(name: str, e: int, a: str, b: str) -> None:
        """Bind *name* to the run of data pair ``(a, b)`` for query edge *e*
        (the per-label run for a labeled edge)."""
        if edge_labels[e] is not None:
            w.line(f"{name} = ltg(({a}, {b}, el{e}), ())")
        else:
            w.line(f"{name} = run({a}, {b})")

    # Leaf: joint timestamp enumeration over the complete embedding.
    w.open("def leaf():")
    w.line("nonlocal match_n, join_c, join_p")
    _deadline_check(w)
    for e, (eu, ev) in enumerate(edge_endpoints):
        emit_run(f"r{e}", e, f"vm[{eu}]", f"vm[{ev}]")
    run_names = ", ".join(f"r{e}" for e in range(m))
    total_len = " + ".join(f"len(r{e})" for e in range(m))
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
    edges = ", ".join(
        f"tnew(TE, (fm[{eu}], fm[{ev}], times[{e}]))"
        for e, (eu, ev) in enumerate(edge_endpoints)
    )
    etrailing = "," if m == 1 else ""
    w.line(f"accept(tnew(Mk, (({edges}{etrailing}), fm)))")
    w.close()
    w.open("if not produced:")
    w.line("join_p += 1")
    w.line(f"fails[{n}] += 1")
    w.close()
    w.close()  # def leaf

    for pos, u in enumerate(tcq.order):
        u_prec = tcq.prec[pos]
        w.open(f"def d{pos}():")
        w.line(nonlocal_decl)
        _deadline_check(w)
        w.line("nodes_n += 1")
        w.line("produced = False")
        fail = f"fails[{pos + 1}] += 1"
        if u_prec is None:
            # A seed iterates its own candidate set: nothing to skip.
            w.open(f"for v in {'root_seed' if pos == 0 else f'cands{u}'}:")
            _deadline_check(w)
        else:
            # The prec's candidate list: survivors in base order, their
            # base indices and the base length.  The index gaps are the
            # skipped non-candidates.
            w.line(f"sv, ix, size = lists{pos}[vm[{u_prec}]]")
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
        for wv, need_uw, need_wu in matcher._fv_checks[pos]:
            if need_uw:
                w.open(f"if not hp(v, vm[{wv}]):")
                w.line("str_p += 1")
                w.line(fail)
                w.line("continue")
                w.close()
            if need_wu:
                w.open(f"if not hp(vm[{wv}], v):")
                w.line("str_p += 1")
                w.line(fail)
                w.line("continue")
                w.close()
        w.line(f"vm[{u}] = v")
        w.line("tmp_c += 1")
        for c in tcq.check_at[pos]:
            eu, ev = edge_endpoints[c.earlier]
            lu, lv = edge_endpoints[c.later]
            emit_run("e_ts", c.earlier, f"vm[{eu}]", f"vm[{ev}]")
            emit_run("l_ts", c.later, f"vm[{lu}]", f"vm[{lv}]")
            w.line(f"e_ts, l_ts = cs(e_ts, l_ts, {c.gap}, stats)")
            w.open(f"if not wc(e_ts, l_ts, {c.gap}):")
            w.line("tmp_p += 1")
            w.line(fail)
            w.line("continue")
            w.close()
        w.line("produced = True")
        w.line("used_add(v)")
        if pos + 1 == n:
            w.line("leaf()")
        else:
            w.line(f"d{pos + 1}()")
        w.line("used_discard(v)")
        w.close()  # for v
        if u_prec is not None:
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
    # The interpreted loop opens this bucket at the first leaf, so a
    # search that never reaches one must not create it either.
    w.open("if join_c:")
    w.line('b_join = stats.filter("timestamp-join")')
    w.line("b_join.considered += join_c")
    w.line("b_join.pruned += join_p")
    w.close()
    w.line("_FLUSH(stats, fails, skp)")
    w.close()
    w.close()  # def _enumerate

    return _finish(matcher.name, w.source(), ns)


# ----------------------------------------------------------------------
# shared finishing: compile, register with linecache, notify the hook
# ----------------------------------------------------------------------


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
    code = compile(source, filename, "exec")
    exec(code, ns)  # noqa: S102 - confined to this module by reprolint R020
    # Popped so the namespace does not hold its own entry function: with
    # no ns -> entry -> ns cycle, a dropped plan (and the candidate index
    # its namespace closes over) is freed at once, not at the next full
    # collection.
    entry = cast(EntryFunction, ns.pop("_enumerate"))
    lines = (len(source), None, _SourceLines(source), filename)
    linecache.cache[filename] = lines  # type: ignore[assignment]
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

    Dispatches on the matcher's plan tables (``tcq_plus`` for the
    edge-based family, ``tcq`` for V2V) rather than concrete classes, so
    the matcher modules can import this one without a cycle.  Returns
    ``None`` — interpreted fallback — for matchers this generator does
    not support or query shapes it deliberately bails on.
    """
    if getattr(matcher, "tcq_plus", None) is not None:
        return _compile_e2e(cast("E2EMatcher", matcher))
    if getattr(matcher, "tcq", None) is not None:
        return _compile_v2v(cast("V2VMatcher", matcher))
    return None


#: Re-exported for the matchers' type annotations.
Label = Hashable
