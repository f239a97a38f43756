"""Shared-memory snapshot fan-out: one graph image for K processes.

A compiled :class:`~repro.graphs.GraphSnapshot` is flat ``array('q')``
buffers plus a small amount of Python metadata (labels, label index,
edge labels).  :class:`SharedSnapshot` maps those buffers into one
:mod:`multiprocessing.shared_memory` segment so that worker processes
*attach* to the single OS-level graph image by segment **name** instead
of each deserialising a pickled copy — K workers then cost one graph in
resident memory instead of K, and the first probe in a worker needs no
deserialize and no recompile (``snapshot_compile_count`` stays flat).

Segment layout (all offsets 8-aligned)::

    [u64 meta_len][pickled metadata][CSR arrays, canonical order]

The metadata pickle carries the per-array lengths (offsets derive from
them), the label structures and the time bounds; the arrays ship as raw
machine bytes and are never copied on attach — the attached snapshot's
accessor surface is backed by read-only memoryviews into the mapping,
byte-for-byte equal to the in-process snapshot (parity is pinned in
``tests/graphs/test_shm.py``).

Lifecycle: the exporting process owns the segment and unlinks it when
the handle's refcount drops to zero (:meth:`SharedSnapshot.addref` /
:meth:`SharedSnapshot.close`); attached handles only close their local
mapping.  Pickling a handle ships the segment *name* only — unpickling
attaches (cached per process), which is what lets
:class:`~repro.service.ProcessSpec` stay a few hundred bytes regardless
of graph size.  A long-lived worker drops its attachments to segments
the exporter has since unlinked (:func:`retired_attachments`,
:func:`detach_shared_snapshot`), so it never keeps old graphs mapped.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import threading
from array import array
from multiprocessing import shared_memory
from typing import Any, cast

from ..errors import GraphError
from .snapshot import GraphSnapshot

__all__ = [
    "SharedGraphSnapshot",
    "SharedSnapshot",
    "attach_shared_snapshot",
    "detach_shared_snapshot",
    "release_inherited_segments",
    "retired_attachments",
]

#: Canonical order of the CSR planes inside the segment (mirrors the
#: :class:`GraphSnapshot` constructor's parameter order).
_ARRAY_FIELDS = (
    "out_offsets",
    "out_nbrs",
    "out_ts_offsets",
    "out_times",
    "in_offsets",
    "in_nbrs",
    "in_ts_offsets",
    "in_times",
)

_ITEMSIZE = array("q").itemsize  # 8 bytes on every supported platform
_HEADER_BYTES = 8
#: Where Linux lists the linked POSIX shared-memory segments.
_SHM_DIR = "/dev/shm"


def _align8(n: int) -> int:
    return (n + 7) & ~7


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Drop *shm* from this process's resource tracker, if registered.

    Attached segments must not be unlinked by the attaching process's
    resource tracker at interpreter exit — the exporter owns the unlink.
    Best-effort: tracker internals differ across Python versions.
    """
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(
            getattr(shm, "_name", "/" + shm.name), "shared_memory"
        )
    except Exception:  # pragma: no cover - best-effort only  # noqa: BLE001  # reprolint: disable=R002 -- tracker internals vary per interpreter; failure only risks an early unlink warning
        pass


class SharedGraphSnapshot(GraphSnapshot):
    """A :class:`GraphSnapshot` whose CSR arrays live in shared memory.

    Behaviourally identical to the base class (same accessors over the
    same machine integers — the parity suite pins this); the difference
    is ownership: the flat arrays are read-only memoryviews borrowed
    from a :class:`SharedSnapshot` segment, so :attr:`owned_nbytes`
    reports 0 and pickling reduces to the segment name.
    """

    __slots__ = ("_segment_name",)

    def __init__(self, segment_name: str, **state: Any) -> None:
        # The slot must exist before base __init__ (which only touches
        # base-class slots) and survive it.
        object.__setattr__(self, "_segment_name", segment_name)  # reprolint: disable=R003 -- construction-time slot init, not a frozen-dataclass write
        super().__init__(**state)

    @property
    def segment_name(self) -> str:
        """Name of the shared-memory segment backing the CSR arrays."""
        return cast(str, self._segment_name)

    @property
    def owned_nbytes(self) -> int:
        """CSR bytes resident in *this* process beyond the shared image.

        Always 0: the arrays alias the segment's single OS-level copy.
        """
        return 0

    def __reduce__(self) -> tuple[Any, ...]:
        # Ship the segment name, never the buffers: the receiving
        # process attaches to the same graph image.
        return (attach_shared_snapshot, (self.segment_name,))

    def _release_views(self) -> None:
        """Release every memoryview this snapshot exported from the segment.

        Called by the owning handle's final :meth:`SharedSnapshot.close`
        so the mapping can actually unmap; afterwards the snapshot's
        accessors raise (operations on released views), which is the
        contract — a closed shared snapshot must not be probed.
        Leaf views (the second-level ``_mv`` caches) release first;
        escaped accessor slices still held by callers make the release
        best-effort.
        """
        for name in (
            "_out_offsets_mv",
            "_out_nbrs_mv",
            "_out_ts_offsets_mv",
            "_out_times_mv",
            "_in_offsets_mv",
            "_in_nbrs_mv",
            "_in_ts_offsets_mv",
            "_in_times_mv",
            "_out_offsets",
            "_out_nbrs",
            "_out_ts_offsets",
            "_out_times",
            "_in_offsets",
            "_in_nbrs",
            "_in_ts_offsets",
            "_in_times",
        ):
            view = getattr(self, name, None)
            if isinstance(view, memoryview):
                try:
                    view.release()
                except BufferError:  # pragma: no cover - escaped sub-views
                    pass


class SharedSnapshot:
    """Handle to one exported graph image in shared memory.

    Create with :meth:`export` (owning side) or :meth:`attach` (worker
    side); get the accessor-compatible snapshot from :meth:`snapshot`.
    The handle refcounts :meth:`close`; the owner unlinks the segment
    when its count reaches zero (attached handles never unlink).
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        owner: bool,
    ) -> None:
        self._shm = shm
        self._owner = owner
        self._owner_pid = os.getpid()
        self._lock = threading.Lock()
        self._refs = 1
        self._closed = False
        self._snapshot: SharedGraphSnapshot | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def export(cls, snapshot: GraphSnapshot) -> "SharedSnapshot":
        """Copy *snapshot*'s compiled payload into a fresh shm segment.

        One memcpy per CSR plane plus one metadata pickle; afterwards
        any number of processes can attach by name at zero copy cost.
        """
        state = snapshot.__getstate__()
        arrays = {name: state.pop(name) for name in _ARRAY_FIELDS}
        meta = {
            "lengths": [len(cast("array[int]", arrays[f])) for f in _ARRAY_FIELDS],
            "state": state,
        }
        blob = pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)
        arrays_start = _align8(_HEADER_BYTES + len(blob))
        total = arrays_start + sum(
            _ITEMSIZE * int(n) for n in meta["lengths"]
        )
        shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
        buf = shm.buf
        buf[:_HEADER_BYTES] = len(blob).to_bytes(_HEADER_BYTES, "little")
        buf[_HEADER_BYTES : _HEADER_BYTES + len(blob)] = blob
        offset = arrays_start
        for field in _ARRAY_FIELDS:
            data = memoryview(arrays[field]).cast("B")
            buf[offset : offset + data.nbytes] = data
            offset += data.nbytes
        handle = cls(shm, owner=True)
        _register_owner(handle)
        return handle

    @classmethod
    def attach(cls, name: str) -> "SharedSnapshot":
        """Open the existing segment *name* (no copies, no compiles)."""
        shm = shared_memory.SharedMemory(name=name)
        # Attaching registers with this process's resource tracker; only
        # the exporting handle may own the tracker entry (and the
        # eventual unlink).  Attaching in the *owning* process must not
        # untrack, or the owner's entry would be removed underneath it;
        # nor may a multiprocessing child, which shares its parent's
        # tracker (registering again there is a no-op).
        if not _owns_segment(name) and multiprocessing.parent_process() is None:
            _untrack(shm)
        return cls(shm, owner=False)

    # ------------------------------------------------------------------
    # identity and accounting
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Segment name — the only thing shipped between processes."""
        return self._shm.name

    @property
    def nbytes(self) -> int:
        """Size of the one shared segment (arrays + metadata + header)."""
        return self._shm.size

    @property
    def owner(self) -> bool:
        """True on the exporting handle (the one that unlinks)."""
        return self._owner

    @property
    def refcount(self) -> int:
        """Current in-process reference count of this handle."""
        with self._lock:
            return self._refs

    # ------------------------------------------------------------------
    # the attached snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> SharedGraphSnapshot:
        """The memoryview-backed snapshot over this segment (cached)."""
        with self._lock:
            if self._closed:
                raise GraphError(
                    f"shared snapshot {self.name!r} is closed"
                )
            if self._snapshot is None:
                self._snapshot = self._build_snapshot()
            return self._snapshot

    def _build_snapshot(self) -> SharedGraphSnapshot:
        view = self._shm.buf.toreadonly()
        meta_len = int.from_bytes(view[:_HEADER_BYTES], "little")
        meta = pickle.loads(
            view[_HEADER_BYTES : _HEADER_BYTES + meta_len].tobytes()
        )
        lengths = [int(n) for n in meta["lengths"]]
        state: dict[str, Any] = dict(meta["state"])
        offset = _align8(_HEADER_BYTES + meta_len)
        for field, length in zip(_ARRAY_FIELDS, lengths):
            nbytes = length * _ITEMSIZE
            state[field] = view[offset : offset + nbytes].cast("q")
            offset += nbytes
        return SharedGraphSnapshot(self.name, **state)

    # ------------------------------------------------------------------
    # lifecycle (refcounted unlink)
    # ------------------------------------------------------------------
    def addref(self) -> "SharedSnapshot":
        """Take one more reference; pair with one :meth:`close`."""
        with self._lock:
            if self._closed:
                raise GraphError(
                    f"shared snapshot {self.name!r} is closed"
                )
            self._refs += 1
        return self

    def close(self) -> None:
        """Drop one reference; the last one tears the mapping down.

        On the owning handle (in the exporting process) the final close
        also unlinks the segment from the OS; attached handles only
        close their local mapping.  Idempotent once fully closed.
        """
        self._drop(force=False)

    def _drop(self, force: bool) -> None:
        """Drop one reference (every reference when *force*) and tear
        the mapping down once none remain."""
        with self._lock:
            if self._closed:
                return
            self._refs = 0 if force else self._refs - 1
            if self._refs > 0:
                return
            self._closed = True
            snapshot, self._snapshot = self._snapshot, None
        _unregister_owner(self)
        if snapshot is not None:
            snapshot._release_views()
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - escaped accessor views
            # Someone still holds accessor slices into the mapping; leave
            # it mapped (the OS reclaims at process exit) but still
            # unlink below so no new attaches can occur.
            pass
        if self._owner and os.getpid() == self._owner_pid:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        # A handle dropped without close() must not let SharedMemory's
        # finalizer trip over our cached snapshot's exported views.
        snapshot = getattr(self, "_snapshot", None)
        if snapshot is not None:
            snapshot._release_views()

    def __reduce__(self) -> tuple[Any, ...]:
        # A pickled handle is an instruction to attach by name.
        return (_attach_handle_cached, (self.name,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "owner" if self._owner else "attached"
        return (
            f"SharedSnapshot(name={self.name!r}, {role}, "
            f"nbytes={self.nbytes})"
        )


# ----------------------------------------------------------------------
# per-process attach cache (one mapping per segment per worker)
# ----------------------------------------------------------------------

_ATTACHED: dict[str, SharedSnapshot] = {}
_ATTACHED_LOCK = threading.Lock()


def _attach_handle_cached(name: str) -> SharedSnapshot:
    """Attach to segment *name*, reusing this process's existing mapping."""
    with _ATTACHED_LOCK:
        handle = _ATTACHED.get(name)
        if handle is None:
            handle = SharedSnapshot.attach(name)
            _ATTACHED[name] = handle
        return handle


def attach_shared_snapshot(name: str) -> SharedGraphSnapshot:
    """The shared graph image *name* as a ready-to-probe snapshot.

    Worker-process entry point: attaches (cached per process, so K
    queries against one graph map it once) and returns the
    memoryview-backed snapshot — zero buffer copies, zero compiles.
    """
    return _attach_handle_cached(name).snapshot()


def detach_shared_snapshot(name: str) -> None:
    """Close this process's cached attachment to segment *name*, if any.

    Unmaps the segment here (never unlinks it: that stays with the
    exporter); a later attach by name maps it afresh.  Snapshots taken
    from the attachment must not be probed afterwards.
    """
    with _ATTACHED_LOCK:
        handle = _ATTACHED.pop(name, None)
    if handle is not None:
        handle._drop(force=True)


def retired_attachments() -> list[str]:
    """Names of this process's cached attachments whose segment the
    exporter has since unlinked (its graph was replaced or dropped).

    Empty where the platform does not list linked segments under
    ``/dev/shm``: there no attachment is ever judged retired.
    """
    if not os.path.isdir(_SHM_DIR):  # pragma: no cover - non-Linux
        return []
    with _ATTACHED_LOCK:
        names = list(_ATTACHED)
    return [
        name
        for name in names
        if not os.path.exists(os.path.join(_SHM_DIR, name.lstrip("/")))
    ]


# ----------------------------------------------------------------------
# exit safety net: never leak /dev/shm segments from the owning process
# ----------------------------------------------------------------------

_OWNERS: dict[int, SharedSnapshot] = {}
_OWNERS_LOCK = threading.Lock()


def _register_owner(handle: SharedSnapshot) -> None:
    with _OWNERS_LOCK:
        _OWNERS[id(handle)] = handle


def _owns_segment(name: str) -> bool:
    """True when this process holds the owning handle for *name*."""
    with _OWNERS_LOCK:
        return any(h.name == name for h in _OWNERS.values())


def _unregister_owner(handle: SharedSnapshot) -> None:
    with _OWNERS_LOCK:
        _OWNERS.pop(id(handle), None)


def _cleanup_owners() -> None:  # pragma: no cover - exercised at exit
    """Unlink any still-open owned segments at interpreter shutdown."""
    with _OWNERS_LOCK:
        handles = list(_OWNERS.values())
        _OWNERS.clear()
    for handle in handles:
        handle._drop(force=True)


def release_inherited_segments() -> None:
    """Unmap every segment handle a forked process inherited.

    A forked worker starts with copies of its parent's owning and
    attached handles, each mapping a graph image.  It attaches what its
    tasks name instead, so the inherited copies would only keep graphs
    mapped after the parent retires them.  Never unlinks: the owner's
    unlink is guarded by the exporting process id.
    """
    with _OWNERS_LOCK:
        handles = list(_OWNERS.values())
        _OWNERS.clear()
    with _ATTACHED_LOCK:
        handles.extend(_ATTACHED.values())
        _ATTACHED.clear()
    for handle in handles:
        handle._drop(force=True)


def _fresh_locks_after_fork() -> None:  # pragma: no cover - forked child
    """Give a forked child new shared-memory locks.

    The child starts with the forking thread only, so a lock another
    parent thread held at fork time would never be released in it.
    """
    global _ATTACHED_LOCK, _OWNERS_LOCK
    _ATTACHED_LOCK = threading.Lock()
    _OWNERS_LOCK = threading.Lock()
    for handle in (*_OWNERS.values(), *_ATTACHED.values()):
        handle._lock = threading.Lock()


atexit.register(_cleanup_owners)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_locks_after_fork)
