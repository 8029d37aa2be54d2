"""Reachability, risk regions, mishap-reach probability, and risk priority.

Probability semantics are pessimistic single-attempt: the chance of reaching
a mishap is the maximum over paths of the product of transition
probabilities.  Every probability is at most one, so extending a path never
raises its product and the maximum is attained on a simple path.

All states are analyzed at once, in one :class:`AnalysisTable` per target
set, computed on first use by :func:`analysis_table` and cached on the model:

- the probability comes from one max-product Dijkstra search on the reversed
  graph, seeded at the target mishaps (the max-times semiring case of
  shortest-distance search, exact because no probability exceeds one).
  Each state keeps the first transition of a path attaining its maximum, and
  its reported probability is the product along that witness path multiplied
  in forward order, from the state towards the mishap;
- the least severe reachable target comes from one backward breadth-first
  search per severity level, least severe first;
- the risk priority is derived from both under the model's band thresholds,
  ``model.options.bands``.

A table costs O((V + E) log V) once per model and target set, instead of once
per queried state.  The adjacency it walks is built once per model and shared
(:meth:`RiskStructure.outgoing`, :meth:`RiskStructure.incoming`), so it is
read-only.  :func:`mishap_reach_probability` and :func:`risk_priority` are
lookups in the table; :func:`risk_priorities` is the risk priority of every
state, cached on the model per band thresholds.  Regions follow the model's
``options.region_policy`` unless :func:`assign_regions` is given a policy.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Union

from .core import (
    ActionClass,
    Band,  # noqa: F401 - re-exported with BandThresholds
    BandThresholds,
    PhaseKind,
    RiskModelError,
    RiskState,
    RiskStructure,
    Severity,
    Transition,
    has_active,
    is_mishap,
)
from .order import feature_profile, in_loop_features, sv_scale


class Region(Enum):
    SAFE = "safe"
    HAZARDOUS = "hazardous"
    MISHAP = "mishap"


RegionAssignment = dict[RiskState, Region]

#: Transition classes admitted by the mitigation-only reachability filter:
#: everything except endangerments and mishap actions.
DELTA_M = frozenset({ActionClass.MITIGATION, ActionClass.ORDINARY})


def reach(
    model: RiskStructure,
    state: RiskState,
    classes: Optional[frozenset[ActionClass]] = None,
) -> frozenset[RiskState]:
    """States reachable from ``state``, itself included.

    ``classes`` restricts the transitions followed; pass :data:`DELTA_M` for
    the mitigation-only closure.
    """
    model.require_state(state)
    adjacency = model.outgoing()
    seen = {state}
    frontier = [state]
    while frontier:
        s = frontier.pop()
        for t in adjacency[s]:
            if classes is not None and t.action.kind not in classes:
                continue
            if t.target not in seen:
                seen.add(t.target)
                frontier.append(t.target)
    return frozenset(seen)


def _no_active_safe(state: RiskState, model: RiskStructure) -> bool:
    return not has_active(state)


def _handover_safe(state: RiskState, model: RiskStructure) -> bool:
    """Safe when nothing is active and control is either nominal or handed
    over to a declared fallback feature (e.g. the driver)."""
    if has_active(state):
        return False
    if all(p.kind is PhaseKind.INACTIVE for _, p in state.entries):
        return True
    if model.features is None:
        raise RiskModelError("'handover' region policy needs a feature model")
    fallback = model.features.fallback_features()
    if not fallback:
        raise RiskModelError("'handover' region policy needs a fallback feature")
    profile = feature_profile(state, model.features)
    return bool(fallback & in_loop_features(profile))


REGION_POLICIES: dict[str, Callable[[RiskState, RiskStructure], bool]] = {
    "no_active": _no_active_safe,
    "handover": _handover_safe,
}

PolicyLike = Union[str, Callable[[RiskState, RiskStructure], bool], None]


def region_policy(name: str) -> str:
    """``name`` if it names a region policy; raises RiskModelError if not."""
    if name not in REGION_POLICIES:
        choices = ", ".join(REGION_POLICIES)
        raise RiskModelError(f"unknown region policy {name!r}; pick one of {choices}")
    return name


def assign_regions(model: RiskStructure, policy: PolicyLike = None) -> RegionAssignment:
    """Partition the states into safe, hazardous, and mishap regions.

    Mishap states are fixed by their phases.  The safe/hazardous split is a
    pluggable predicate; ``None`` uses the model's configured policy and the
    default policy marks a non-mishap state safe iff no hazard is active.
    """
    if policy is None:
        policy = model.options.region_policy
    if isinstance(policy, str):
        policy = REGION_POLICIES[region_policy(policy)]
    regions: RegionAssignment = {}
    for s in model.states:
        if is_mishap(s):
            regions[s] = Region.MISHAP
        elif policy(s, model):
            regions[s] = Region.SAFE
        else:
            regions[s] = Region.HAZARDOUS
    return regions


@dataclass(frozen=True)
class AnalysisTable:
    """Mishap-reach analysis of every state for one target set.

    ``pr`` maps every state to its maximum path-product probability of
    reaching a target: 1.0 on a target, 0.0 when no path of positive
    probability reaches one.  ``witness`` maps each other state with a
    positive probability to the first transition of a path attaining it.
    ``least_sv`` maps every state that reaches a target (over any
    transitions) to the least severity among the targets it reaches.
    """

    pr: Mapping[RiskState, float]
    witness: Mapping[RiskState, Transition]
    least_sv: Mapping[RiskState, Severity]
    sv: Mapping[RiskState, Severity]

    def risk_priority(self, state: RiskState, thresholds: BandThresholds) -> Severity:
        """See :func:`risk_priority`."""
        if is_mishap(state):
            return self.sv[state]
        least = self.least_sv.get(state)
        if least is None:
            return Severity.MARGINAL
        return sv_scale(thresholds.band(self.pr[state]), least)


def analysis_table(
    model: RiskStructure, targets: Optional[Iterable[RiskState]] = None
) -> AnalysisTable:
    """The analysis of ``model`` against ``targets`` (default: every mishap
    state), computed once per model and target set."""
    key = None if targets is None else frozenset(targets)
    return model._memo(("analysis", key), lambda: _analyze(model, key))


def _analyze(model: RiskStructure, targets: Optional[frozenset[RiskState]]) -> AnalysisTable:
    mishaps = model.mishap_states()
    if targets is None:
        targets = mishaps
    elif not targets <= mishaps:
        stray = sorted(s.name for s in targets - mishaps)
        raise RiskModelError(f"targets must be mishap states, got {stray}")
    incoming = model.incoming()

    # backward max-product Dijkstra; ties pop in state-name order
    best: dict[RiskState, float] = dict.fromkeys(targets, 1.0)
    witness: dict[RiskState, Transition] = {}
    heap = [(-1.0, s.name, s) for s in targets]
    heapq.heapify(heap)
    done: set[RiskState] = set()
    while heap:
        neg, _, s = heapq.heappop(heap)
        if s in done:
            continue
        done.add(s)
        for t in incoming[s]:
            q = -neg * (t.pr if t.pr is not None else 1.0)
            if q > best.get(t.source, 0.0):
                best[t.source] = q
                witness[t.source] = t
                heapq.heappush(heap, (-q, t.source.name, t.source))

    # ``best`` holds exactly the states of positive probability; report the
    # product along the witness path in forward order, as a search from the
    # state itself would multiply it
    pr: dict[RiskState, float] = {}
    for s in model.states:
        p = 1.0 if s in best else 0.0
        step = s
        while step in witness:
            t = witness[step]
            p *= t.pr if t.pr is not None else 1.0
            step = t.target
        pr[s] = p

    # a state reached from a less severe target already has its least
    # severity, and so have all of its predecessors
    least_sv: dict[RiskState, Severity] = {}
    for severity in Severity:  # declared least severe first
        frontier = [s for s in targets if model.sv[s] is severity]
        least_sv.update(dict.fromkeys(frontier, severity))
        while frontier:
            for t in incoming[frontier.pop()]:
                if t.source not in least_sv:
                    least_sv[t.source] = severity
                    frontier.append(t.source)
    return AnalysisTable(
        pr=MappingProxyType(pr),
        witness=MappingProxyType(witness),
        least_sv=MappingProxyType(least_sv),
        sv=MappingProxyType(model.sv),
    )


def risk_priorities(model: RiskStructure) -> Mapping[RiskState, Severity]:
    """:func:`risk_priority` of every state against all mishaps, computed
    once per model and band thresholds, so read-only."""
    bands = model.options.bands

    def compute() -> Mapping[RiskState, Severity]:
        table = analysis_table(model)
        return MappingProxyType({s: table.risk_priority(s, bands) for s in model.states})

    # the options can be reassigned, so the bands are part of the key
    return model._memo(("rp", bands), compute)


def mishap_reach_probability(
    model: RiskStructure,
    state: RiskState,
    targets: Optional[Iterable[RiskState]] = None,
) -> float:
    """Maximum path-product probability of reaching any target mishap.

    Transitions without a probability count as certain.  Returns 0.0 when no
    target is reachable and 1.0 when the state itself is a target.
    """
    model.require_state(state)
    return analysis_table(model, targets).pr[state]


def risk_priority(
    model: RiskStructure,
    state: RiskState,
    targets: Optional[Iterable[RiskState]] = None,
) -> Severity:
    """Band of the mishap-reach probability, under the model's band
    thresholds, scaled against the least severe reachable target mishap;
    marginal when no target is reachable.

    On a mishap state this is its own severity.
    """
    model.require_state(state)
    return analysis_table(model, targets).risk_priority(state, model.options.bands)
