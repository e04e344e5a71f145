"""Schedule-bound predicates used by the bounded DFS explorer.

A bound object answers one incremental question at each scheduling point:
*what does choosing thread ``t`` here cost?* — so the explorer can prune
successors whose cumulative cost would exceed the current bound ``c``.

``DelayBoundCost`` and ``PreemptionBoundCost`` implement the section-2
definitions via :mod:`repro.core.schedule`; ``NoBoundCost`` is unbounded
DFS's free-for-all.  The class-level invariant (tested with hypothesis)
is the paper's containment result: for any step the delay cost dominates
the preemption cost, hence ``{α : DC(α) ≤ c} ⊆ {α : PC(α) ≤ c}``.
"""

from __future__ import annotations

from typing import Tuple

from .schedule import delay_increment, preemption_increment


class BoundCost:
    """Incremental cost model for one bounding discipline.

    Ordering contract: at every scheduling point, the increments must not
    let a candidate the bound prunes come before one it affords in the
    DFS candidate order (the round-robin default first, then round-robin
    from the last thread).  So a point's pruned candidates are a suffix of
    that order, and the bounded DFS can append them to its frontier after
    all of the point's explored subtrees — DFS order by construction.
    Every shipped model keeps it: preemption increments are equal for all
    non-default candidates, delay increments grow along the round-robin
    order, and ``NoBoundCost`` prunes nothing.  The DFS raises if a model
    breaks it, as it does when the default candidate is pruned.
    """

    name = "none"

    #: Whether ``increment`` is a pure function of ``(step_index == 0,
    #: last_tid, chosen, enabled, num_created)`` — true for every shipped
    #: model.  When set, the DFS interns candidate orderings and their
    #: increments per scheduling state instead of recomputing them.
    #: Custom models that read ``step_index`` beyond the ``== 0`` check
    #: must leave this ``False``.
    cacheable = False

    def increment(
        self,
        step_index: int,
        last_tid: int,
        chosen: int,
        enabled: Tuple[int, ...],
        num_created: int,
    ) -> int:
        raise NotImplementedError


class NoBoundCost(BoundCost):
    """Unbounded search: every choice is free."""

    name = "none"
    cacheable = True

    def increment(
        self,
        step_index: int,
        last_tid: int,
        chosen: int,
        enabled: Tuple[int, ...],
        num_created: int,
    ) -> int:
        return 0


class PreemptionBoundCost(BoundCost):
    """Preemption bounding (Musuvathi & Qadeer, PLDI'07)."""

    name = "preemption"
    cacheable = True

    def increment(
        self,
        step_index: int,
        last_tid: int,
        chosen: int,
        enabled: Tuple[int, ...],
        num_created: int,
    ) -> int:
        if step_index == 0:
            return 0  # a schedule of length <= 1 has no preemptions
        return preemption_increment(last_tid, chosen, enabled)


class DelayBoundCost(BoundCost):
    """Delay bounding (Emmi, Qadeer, Rakamarić, POPL'11) against the
    non-preemptive round-robin deterministic scheduler."""

    name = "delay"
    cacheable = True

    def increment(
        self,
        step_index: int,
        last_tid: int,
        chosen: int,
        enabled: Tuple[int, ...],
        num_created: int,
    ) -> int:
        if step_index == 0:
            return 0  # a schedule of length <= 1 has no delays
        return delay_increment(last_tid, chosen, enabled, num_created)


NO_BOUND = NoBoundCost()
PREEMPTION = PreemptionBoundCost()
DELAY = DelayBoundCost()
