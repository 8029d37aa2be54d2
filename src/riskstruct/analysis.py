"""Reachability, risk regions, mishap-reach probability, and risk priority.

Probability semantics are pessimistic single-attempt: the chance of reaching
a mishap is the maximum over paths of the product of transition
probabilities.  Every probability is at most one, so extending a path never
raises its product and the maximum is attained on a simple path.

All states are analyzed at once, in one :class:`AnalysisTable` per model,
computed on first use by :func:`analysis_table` and cached on the model,
which is a frozen value:

- the probability comes from one max-product Dijkstra search on the reversed
  graph, seeded at the mishap states (the max-times semiring case of
  shortest-distance search, exact because no probability exceeds one).
  Each state keeps the first transition of a path attaining its maximum, and
  its reported probability is the product along that witness path multiplied
  in forward order, from the state towards the mishap;
- the least severe reachable mishap comes from one backward breadth-first
  search per severity level, least severe first;
- the risk priority is derived from both under the model's band thresholds,
  ``model.options.bands``.

A table costs O((V + E) log V) once per model, instead of once per queried
state.  The adjacency it walks is built once per model and shared
(:meth:`RiskStructure.outgoing`, :meth:`RiskStructure.incoming`), so it is
read-only.  :func:`mishap_reach_probability` and :func:`risk_priority` are
lookups in the table, and :func:`risk_priorities` is its ``rp``.  Regions
follow the model's ``options.region_policy``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Mapping, Optional

from .core import (
    REGION_POLICIES,
    ActionClass,
    Band,  # noqa: F401 - re-exported
    BandThresholds,  # noqa: F401 - re-exported
    PhaseKind,
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
    over to a fallback feature (e.g. the driver), which a model with this
    policy declares (:func:`~riskstruct.core.feature_defects`)."""
    if has_active(state):
        return False
    if all(p.kind is PhaseKind.INACTIVE for _, p in state.entries):
        return True
    profile = feature_profile(state, model.features)
    return bool(model.features.fallback_features() & in_loop_features(profile))


#: The safe-state predicate of each region policy, by its name.
_SAFE = dict(zip(REGION_POLICIES, (_no_active_safe, _handover_safe), strict=True))


def assign_regions(model: RiskStructure) -> RegionAssignment:
    """Partition the states into safe, hazardous, and mishap regions.

    Mishap states are fixed by their phases.  The safe/hazardous split is the
    predicate of the model's ``options.region_policy``; the default policy,
    ``no_active``, marks a non-mishap state safe iff no hazard is active.
    """
    safe = _SAFE[model.options.region_policy]
    regions: RegionAssignment = {}
    for s in model.states:
        if is_mishap(s):
            regions[s] = Region.MISHAP
        elif safe(s, model):
            regions[s] = Region.SAFE
        else:
            regions[s] = Region.HAZARDOUS
    return regions


@dataclass(frozen=True)
class AnalysisTable:
    """Mishap-reach analysis of every state of one model.

    ``pr`` maps every state to its maximum path-product probability of
    reaching a mishap state: 1.0 on a mishap state, 0.0 when no path of
    positive probability reaches one.  ``witness`` maps each other state with
    a positive probability to the first transition of a path attaining it.
    ``least_sv`` maps every state that reaches a mishap state (over any
    transitions) to the least severity among the mishap states it reaches.
    ``rp`` maps every state to its risk priority (see :func:`risk_priority`).
    """

    pr: Mapping[RiskState, float]
    witness: Mapping[RiskState, Transition]
    least_sv: Mapping[RiskState, Severity]
    rp: Mapping[RiskState, Severity]


def analysis_table(model: RiskStructure) -> AnalysisTable:
    """The analysis of ``model``, computed once per model."""
    return model._memo("analysis", lambda: _analyze(model))


def _analyze(model: RiskStructure) -> AnalysisTable:
    mishaps = model.mishap_states()
    incoming = model.incoming()

    # backward max-product Dijkstra; ties pop in state-name order
    best: dict[RiskState, float] = dict.fromkeys(mishaps, 1.0)
    witness: dict[RiskState, Transition] = {}
    heap = [(-1.0, s.name, s) for s in mishaps]
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

    # a state reached from a less severe mishap already has its least
    # severity, and so have all of its predecessors
    least_sv: dict[RiskState, Severity] = {}
    for severity in Severity:  # declared least severe first
        frontier = [s for s in mishaps if model.sv[s] is severity]
        least_sv.update(dict.fromkeys(frontier, severity))
        while frontier:
            for t in incoming[frontier.pop()]:
                if t.source not in least_sv:
                    least_sv[t.source] = severity
                    frontier.append(t.source)

    # a mishap state is final, so its pr is 1.0, its band high and its least
    # severity its own: its risk priority is its own severity
    bands = model.options.bands
    rp = {
        s: sv_scale(bands.band(pr[s]), least_sv[s]) if s in least_sv else Severity.MARGINAL
        for s in model.states
    }
    return AnalysisTable(
        pr=MappingProxyType(pr),
        witness=MappingProxyType(witness),
        least_sv=MappingProxyType(least_sv),
        rp=MappingProxyType(rp),
    )


def risk_priorities(model: RiskStructure) -> Mapping[RiskState, Severity]:
    """:func:`risk_priority` of every state: the ``rp`` of the model's
    :func:`analysis_table`, so read-only."""
    return analysis_table(model).rp


def mishap_reach_probability(model: RiskStructure, state: RiskState) -> float:
    """Maximum path-product probability of reaching any mishap state.

    Transitions without a probability count as certain.  Returns 0.0 when no
    mishap state is reachable and 1.0 on a mishap state.
    """
    model.require_state(state)
    return analysis_table(model).pr[state]


def risk_priority(model: RiskStructure, state: RiskState) -> Severity:
    """Band of the mishap-reach probability, under the model's band
    thresholds, scaled against the least severe reachable mishap state;
    marginal when no mishap state is reachable.

    On a mishap state this is its own severity.
    """
    model.require_state(state)
    return analysis_table(model).rp[state]
