"""Graph registry: named, versioned, long-lived graph snapshots.

The amortization premise of the service is that a data graph is loaded
*once* and served *many* times.  The registry holds compiled
:class:`~repro.graphs.GraphSnapshot` images under stable names; every
(re)registration of a name bumps a monotonically increasing version that
never resets, even across a drop — cache keys embed ``(name, version)``,
so replacing a graph implicitly invalidates every plan and result cached
against the old snapshot without any cache traversal.

With ``export_shared=True`` (the service sets it exactly when its pool
is ``"process"``) the registry additionally exports each compiled
snapshot into a :class:`~repro.graphs.SharedSnapshot` shared-memory
segment at registration time, so the process-pool executor ships
segment *names* to workers instead of pickled CSR buffers.
Replacing or dropping a graph releases the old segment's registry
reference; in-flight fan-outs keep it alive through their own
``addref``/``close`` pairs (refcounted unlink).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..errors import UnknownGraphError
from ..graphs import (
    GraphSnapshot,
    SharedSnapshot,
    TemporalGraph,
    ensure_snapshot,
    snapshot_write_barrier,
)
from ..obs import sanitize_enabled

__all__ = ["GraphHandle", "GraphRegistry"]


@dataclass(frozen=True)
class GraphHandle:
    """One registered graph: ``(name, version, snapshot[, shared])``.

    ``snapshot`` is the graph's frozen CSR compilation, produced exactly
    once per ``(graph, version)`` at registration time; queries, plan
    preparation, the process-pool executor and :meth:`describe` all
    read the snapshot (compact to pickle, safe to share lock-free
    across threads).  The handle keeps no reference to the mutable
    builder graph, so the registry holds one copy of each graph.
    ``shared`` is the snapshot's shared-memory export when the registry
    was built with ``export_shared=True`` (``None`` otherwise).
    """

    name: str
    version: int
    snapshot: GraphSnapshot
    shared: SharedSnapshot | None = None

    def describe(self) -> dict[str, object]:
        """Plain-data summary for server responses."""
        payload: dict[str, object] = {
            "name": self.name,
            "version": self.version,
            "num_vertices": self.snapshot.num_vertices,
            "num_temporal_edges": self.snapshot.num_temporal_edges,
            "num_static_edges": self.snapshot.num_static_edges,
            "fingerprint": self.snapshot.fingerprint,
        }
        if self.shared is not None:
            payload["shared_segment"] = self.shared.name
            payload["shared_nbytes"] = self.shared.nbytes
        return payload


class GraphRegistry:
    """Thread-safe mapping of graph names to versioned snapshots."""

    def __init__(self, export_shared: bool = False) -> None:
        self.export_shared = export_shared
        self._handles: dict[str, GraphHandle] = {}
        self._versions: dict[str, int] = {}
        self._lock = threading.Lock()

    def register(self, name: str, graph: TemporalGraph) -> GraphHandle:
        """Publish *graph* under *name*, bumping the name's version.

        Returns the new handle; a previously registered snapshot under the
        same name is replaced atomically (in-flight queries holding the
        old handle keep matching against the old snapshot — graphs are
        never mutated in place; an old *shared segment* likewise stays
        mapped until its last in-flight reference closes).

        The CSR snapshot is compiled here, outside the registry lock and
        exactly once per ``(graph, version)`` (``freeze()`` caches on the
        graph, so re-registering the same object reuses its compilation).
        Under ``export_shared`` the compiled payload is also exported
        into a shared-memory segment, once per registration.
        """
        snapshot = ensure_snapshot(graph)
        if sanitize_enabled():
            # Sanitizer mode: every consumer of this handle (plan
            # preparation, query runs, pickling into the process pool)
            # gets the write-barrier wrapped snapshot, so any
            # post-compile mutation anywhere in the service raises.
            snapshot = snapshot_write_barrier(snapshot)
        shared = (
            SharedSnapshot.export(snapshot) if self.export_shared else None
        )
        with self._lock:
            version = self._versions.get(name, 0) + 1
            self._versions[name] = version
            handle = GraphHandle(
                name=name,
                version=version,
                snapshot=snapshot,
                shared=shared,
            )
            previous = self._handles.get(name)
            self._handles[name] = handle
        if previous is not None and previous.shared is not None:
            previous.shared.close()
        return handle

    def get(self, name: str) -> GraphHandle:
        """The current handle for *name*; raises :class:`UnknownGraphError`."""
        with self._lock:
            handle = self._handles.get(name)
            known = ", ".join(sorted(self._handles)) or "(none)"
        if handle is None:
            raise UnknownGraphError(
                f"unknown graph {name!r}; registered: {known}"
            )
        return handle

    def drop(self, name: str) -> None:
        """Remove *name*; the version counter survives for cache safety."""
        with self._lock:
            if name not in self._handles:
                raise UnknownGraphError(f"unknown graph {name!r}")
            handle = self._handles.pop(name)
        if handle.shared is not None:
            handle.shared.close()

    def close(self) -> None:
        """Drop every graph, releasing all shared segments (idempotent)."""
        with self._lock:
            handles = list(self._handles.values())
            self._handles.clear()
        for handle in handles:
            if handle.shared is not None:
                handle.shared.close()

    def names(self) -> tuple[str, ...]:
        """Sorted names of the registered graphs."""
        with self._lock:
            return tuple(sorted(self._handles))

    def handles(self) -> tuple[GraphHandle, ...]:
        """Current handles, sorted by name."""
        with self._lock:
            return tuple(
                handle for _, handle in sorted(self._handles.items())
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._handles)
