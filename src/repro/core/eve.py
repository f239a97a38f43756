"""TCSM-EVE: edge-vertex-edge expansion matching (Algorithm 5).

EVE is TCSM-E2E plus *vertex pre-matching*: whenever an edge match
introduces a new query vertex ``u``, the candidate data vertex must have,
for every backward neighbour ``u' ∈ BN(u)`` (Definition 8), some data
neighbour carrying ``L(u')``.  The look-ahead prunes embeddings whose
surroundings can never complete, before any further edges are attempted —
this is the paper's best algorithm.

The shared search machinery lives in :class:`E2EMatcher`; EVE only flips
the ``vertex_prematching`` hook, so ``prepare`` puts the look-ahead's
per-position labels in the plan's tables and the generated enumerator
(:mod:`repro.core.codegen`) tests them.
"""

from __future__ import annotations

from .e2e import E2EMatcher

__all__ = ["EVEMatcher"]


class EVEMatcher(E2EMatcher):
    """Matcher implementing TCSM-EVE (Algorithm 5)."""

    name = "tcsm-eve"
    vertex_prematching = True
