"""The per-container candidate walk: the oracle of the batch kernel.

With isomorphism and depth limiting on, ``AladdinScheduler`` places
each application block with the batched kernel
(:mod:`repro.core.batchkernel`) and walks per container
(``_CandidateWalk``) only what the kernel could not place — a block's
overflow, which falls through to rescue.  The walk is the from-scratch
reference the kernel is checked against: an engine whose kernel places
nothing sends every block down it, one admit mask per block, one
packed-first candidate per container::

    walk_blocks(AladdinScheduler())

and the two are compared decision for decision — placements, failure
verdicts, rescue migrations.  ``explored`` and the kernel's own
counters are costs and legitimately differ (an affinity-tiered block
builds its admit mask twice on the walk side).
"""

from __future__ import annotations


def walk_blocks(engine):
    """``engine`` with every block placed by the per-container walk:
    its batch kernel places no container, so each block takes the
    overflow path."""
    engine._batch_place = _place_nothing
    return engine


def _place_nothing(block, state, demand, mask, affinity, result) -> int:
    return 0
