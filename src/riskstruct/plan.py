"""Mitigation planning: safest possible states and lowest-risk plans.

A plan is a chain of mitigation transitions (ordinary actions are admitted on
request, endangerments never).  Plans to a target are ranked by worst risk
priority along the way, then total cost, length, action names and the names
of the states passed, so the ranking is a total, reproducible order; of two
plans equal on all but the state names, the first in transition-key order
wins.  The planner runs one Dijkstra search per risk priority r at or above
the start's, least first, so at most three: the search at level r follows
only edges into states of risk priority at most r, and each target takes the
path of the first level that reaches it.  Within a level, extending two paths
by one edge keeps their order and makes both keys larger, so the search is
exact and its paths are simple.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

from .core import (
    ActionClass,
    RiskState,
    RiskStructure,
    Severity,
    Transition,
)
from .analysis import DELTA_M, reach, risk_priorities
from .order import maxima, sv_max


@dataclass(frozen=True)
class Plan:
    """A chained sequence of transitions with its aggregate metrics."""

    path: tuple[Transition, ...]
    total_cost: int
    max_rp: Severity
    attainment: float

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("a plan needs at least one transition")
        for a, b in zip(self.path, self.path[1:]):
            if a.target != b.source:
                raise ValueError("plan transitions do not chain")

    @property
    def start(self) -> RiskState:
        return self.path[0].source

    @property
    def end(self) -> RiskState:
        return self.path[-1].target

    def states(self) -> tuple[RiskState, ...]:
        return (self.path[0].source, *(t.target for t in self.path))

    def action_names(self) -> tuple[str, ...]:
        return tuple(t.action.name for t in self.path)


def make_plan(model: RiskStructure, path: Sequence[Transition]) -> Plan:
    """Compute a plan's metrics from its transition sequence."""
    path = tuple(path)
    states = (path[0].source, *(t.target for t in path))
    rps = risk_priorities(model)
    return Plan(
        path=path,
        total_cost=sum(t.cs or 0 for t in path),
        max_rp=sv_max([rps[s] for s in states]),
        attainment=math.prod(
            (t.pr if t.pr is not None else 1.0 for t in path), start=1.0
        ),
    )


def safest_possible_states(model: RiskStructure, state: RiskState) -> frozenset[RiskState]:
    """Maximal elements, in the mitigation order, of the mitigation-only
    reachability closure of ``state``."""
    return frozenset(maxima(reach(model, state, DELTA_M)))


def plan_mitigations(
    model: RiskStructure,
    state: RiskState,
    allow_ordinary: bool = False,
) -> list[Plan]:
    """Best plan to each safest possible state reachable from ``state``.

    Returns one plan per target, ordered by the target's label; empty when
    the state is already its only safest possible state.  Targets that are
    unreachable under the admitted transition classes are skipped (this can
    happen only when ordinary actions widen the closure but are not admitted
    for planning).
    """
    model.require_state(state)
    classes = DELTA_M if allow_ordinary else {ActionClass.MITIGATION}
    targets = safest_possible_states(model, state) - {state}
    rps = risk_priorities(model)
    adjacency = model.outgoing()
    paths: dict[RiskState, tuple[Transition, ...]] = {}
    # a level that no state has repeats the last search, and keeps its paths
    for level in range(rps[state].rank, len(Severity)):
        if targets <= paths.keys():
            break
        # the key (cost, length, action names, state names) is unique per
        # path, so the heap never compares the states or paths after it
        settled: set[RiskState] = set()
        heap = [(0, 0, (), (), state, ())]
        while heap:
            cost, length, names, stops, s, path = heapq.heappop(heap)
            if s in settled:
                continue
            settled.add(s)
            if s in targets:
                paths.setdefault(s, path)
            for t in adjacency[s]:
                if (
                    t.action.kind in classes
                    and t.target not in settled
                    and rps[t.target].rank <= level
                ):
                    heapq.heappush(heap, (
                        cost + (t.cs or 0),
                        length + 1,
                        (*names, t.action.name),
                        (*stops, t.target.name),
                        t.target,
                        (*path, t),
                    ))
    return [
        make_plan(model, paths[target])
        for target in sorted(paths, key=model.label)
    ]


def is_mitigation_monotonous(model: RiskStructure, plan: Plan, slack: int = 0) -> bool:
    """Whether risk priority never increases along the plan's states.

    ``slack`` tolerates that many increases, as a practical relaxation.
    """
    rps = risk_priorities(model)
    states = plan.states()
    violations = sum(1 for a, b in zip(states, states[1:]) if rps[b].rank > rps[a].rank)
    return violations <= slack
