"""Runtime concurrency sanitizer: the dynamic half of R013/R014.

The static analyzer (``tools/reprolint`` rules R013–R016) proves lock
discipline and frozen-state immutability *syntactically*; this module
enforces the same contracts *at runtime* so the two layers
cross-validate.  It is stdlib-only and dependency-free by design — the
graphs layer imports it, so it must sit at the bottom of the import
graph.

Enable with ``REPRO_SANITIZE=1`` in the environment (CI runs the tier-1
suite once this way) or per-call with ``MatchOptions(sanitize=True)``.
When active:

* the engine wraps input :class:`~repro.graphs.snapshot.GraphSnapshot`
  objects in a write-barrier subclass whose ``__setattr__`` raises
  :class:`SanitizerError` on any post-construction mutation (the lazy
  cache slots certified idempotent by the R014 pragmas stay writable);
* the service layer's ``*_locked()`` helpers call
  :func:`assert_lock_held`, turning a lock-discipline violation — a
  helper reached without its guarding lock — into an immediate error
  at the exact site instead of a silent data race.

Both checks are zero-cost when disabled: the env flag is never cached,
so tests can toggle it, and ``assert_lock_held`` returns before touching
the lock when the sanitizer is off.  Most call sites read the flag per
call; a hot path reads it once per entry and passes the answer down as
``enabled`` (``StreamingEngine.ingest`` reads it once per call, not once
per edge and helper).
"""

from __future__ import annotations

import os
import threading

__all__ = [
    "SanitizerError",
    "assert_lock_held",
    "sanitize_enabled",
]

_ENV_FLAG = "REPRO_SANITIZE"

#: Values of the env var treated as "off" (anything else enables).
_FALSY = {"", "0", "false", "no", "off"}


class SanitizerError(AssertionError):
    """A runtime concurrency-contract violation.

    Subclasses ``AssertionError`` so existing ``pytest.raises`` habits
    and "assertions are contract checks" intuitions carry over, while
    staying distinct enough to catch precisely.
    """


def sanitize_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` requests sanitizer mode."""
    return os.environ.get(_ENV_FLAG, "").strip().lower() not in _FALSY


def assert_lock_held(
    lock: threading.Lock | threading.RLock,
    name: str = "lock",
    *,
    enabled: bool | None = None,
) -> None:
    """Fail fast if *lock* is not held at a site R013 certifies as guarded.

    No-op unless the sanitizer is enabled: *enabled* when given (a
    caller's once-per-entry :func:`sanitize_enabled` reading), else the
    environment flag read now.  For ``RLock`` the check is
    exact (``_is_owned`` knows the owning thread); for a plain ``Lock``
    Python cannot attribute ownership, so the check degrades to
    "somebody holds it" — still enough to catch the common bug of
    calling a ``*_locked()`` helper from a new code path without the
    ``with self._lock:`` wrapper, since the helper runs unlocked there.
    """
    if not (sanitize_enabled() if enabled is None else enabled):
        return
    owned = getattr(lock, "_is_owned", None)
    held = owned() if callable(owned) else lock.locked()
    if not held:
        raise SanitizerError(
            f"{name} must be held here (lock-discipline contract); "
            "wrap the call in `with {0}:`".format(name)
        )
