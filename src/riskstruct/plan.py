"""Mitigation planning: safest possible states and lowest-risk plans.

A plan is a chain of mitigation transitions (ordinary actions are admitted on
request, endangerments never).  Plans to a target are ranked by worst risk
priority along the way, then total cost, then length, then action names, so
the ranking is a total, reproducible order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .core import (
    ActionClass,
    RiskState,
    RiskStructure,
    Severity,
    Transition,
)
from .analysis import (
    DELTA_M,
    BandThresholds,
    analysis_table,
    reach,
    risk_priorities,
)
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


def make_plan(
    model: RiskStructure,
    path: Sequence[Transition],
    thresholds: Optional[BandThresholds] = None,
    _rps: Optional[Mapping[RiskState, Severity]] = None,
) -> Plan:
    """Compute a plan's metrics from its transition sequence.

    ``_rps``, the risk priority of every state, spares a caller that makes
    many plans from recomputing it.
    """
    path = tuple(path)
    if _rps is None:
        _rps = risk_priorities(model, thresholds)
    states = (path[0].source, *(t.target for t in path))
    return Plan(
        path=path,
        total_cost=sum(t.cs or 0 for t in path),
        max_rp=sv_max([_rps[s] for s in states]),
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
    thresholds: Optional[BandThresholds] = None,
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
    classes = frozenset(
        {ActionClass.MITIGATION, ActionClass.ORDINARY}
        if allow_ordinary
        else {ActionClass.MITIGATION}
    )
    targets = sorted(
        safest_possible_states(model, state) - {state}, key=model.label
    )
    adjacency = model.outgoing()
    rps = risk_priorities(model, thresholds)
    plans = []
    for target in targets:
        best = _best_plan(model, adjacency, state, target, classes, rps)
        if best is not None:
            plans.append(best)
    return plans


def _plan_key(plan: Plan) -> tuple:
    return (plan.max_rp.rank, plan.total_cost, len(plan.path), plan.action_names())


def _best_plan(
    model: RiskStructure,
    adjacency,
    start: RiskState,
    target: RiskState,
    classes: frozenset[ActionClass],
    rps: Mapping[RiskState, Severity],
) -> Optional[Plan]:
    """Exhaustive simple-path search with monotone pruning.

    Every ranking component only grows as a path is extended, so a prefix
    already ranked at or above the best complete plan cannot improve on it.
    """
    best: Optional[Plan] = None

    def extend(current: RiskState, path: list[Transition], visited: set[RiskState]):
        nonlocal best
        for t in adjacency[current]:
            if t.action.kind not in classes or t.target in visited:
                continue
            path.append(t)
            candidate = make_plan(model, path, _rps=rps)
            if best is None or _plan_key(candidate) < _plan_key(best):
                if t.target == target:
                    best = candidate
                else:
                    visited.add(t.target)
                    extend(t.target, path, visited)
                    visited.remove(t.target)
            path.pop()

    extend(start, [], {start})
    return best


def is_mitigation_monotonous(
    model: RiskStructure,
    plan: Plan,
    thresholds: Optional[BandThresholds] = None,
    slack: int = 0,
) -> bool:
    """Whether risk priority never increases along the plan's states.

    ``slack`` tolerates that many increases, as a practical relaxation.
    """
    if thresholds is None:
        thresholds = BandThresholds.from_model(model)
    table = analysis_table(model)
    rps = [table.risk_priority(s, thresholds) for s in plan.states()]
    violations = sum(1 for a, b in zip(rps, rps[1:]) if b.rank > a.rank)
    return violations <= slack
