"""Model reduction: equivalence quotients, explicit drop rules, chain collapse.

Quotients merge states that are equivalent, agree on the mishap phase of
every hazard and share a risk region (so a merge can never bridge mishap and
non-mishap states), optionally requiring equal risk priority.  Each
equivalence is one key function of :mod:`riskstruct.order`; this module only
looks it up.  Merged states keep the phases of a maximal member and a display
label joining the member names.  Drop rules and chain collapse walk the
model's cached adjacency.  Regions and risk priorities are those of the
model's own options, ``region_policy`` and ``bands``.  Each reduction returns
a new model, whose actions are those of its transitions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional, Sequence

from .core import (
    ActionClass,
    RiskModelError,
    RiskState,
    RiskStructure,
    Severity,
    Transition,
    is_mishap,
)
from .analysis import Region, RegionAssignment, assign_regions, reach, risk_priorities
from .order import (
    degradation_key,
    feature_key,
    hazard_key,
    maxima,
    mishap_key,
    mitigation_key,
    sv_max,
)


class IncompatibleMerge(RiskModelError):
    """A merge would span mishap and non-mishap states."""


# Each equivalence is the equality of one key function of riskstruct.order;
# the feature-based keys also read the model's feature declarations.
_STATE_KEYS = {"h": hazard_key, "hm": mishap_key, "m": mitigation_key}
_FEATURE_KEYS = {"f": feature_key, "d": degradation_key}
EQUIVALENCES = (*_STATE_KEYS, *_FEATURE_KEYS)


def _equivalence_key(model: RiskStructure, equivalence: str) -> Callable[[RiskState], object]:
    if equivalence in _STATE_KEYS:
        return _STATE_KEYS[equivalence]
    if equivalence not in _FEATURE_KEYS:
        raise RiskModelError(
            f"unknown equivalence {equivalence!r}; pick one of {EQUIVALENCES}"
        )
    if model.features is None:
        raise RiskModelError(
            f"equivalence {equivalence!r} needs the model's feature declarations"
        )
    return partial(_FEATURE_KEYS[equivalence], features=model.features)


def quotient(
    model: RiskStructure,
    equivalence: str,
    require_equal_rp: bool = False,
) -> RiskStructure:
    """Merge equivalent states that share a region (and risk priority, if
    required).  Each class is represented by the label-least of its maximal
    members in the mitigation order (:func:`riskstruct.order.maxima`).
    Parallel merged transitions with one action name keep the maximum
    probability and minimum cost; self-loops induced by merging are
    dropped."""
    key_fn = _equivalence_key(model, equivalence)
    regions = assign_regions(model)
    rps = risk_priorities(model) if require_equal_rp else None

    def class_key(state: RiskState) -> tuple:
        # mishap patterns are always preserved, whatever the equivalence
        parts: tuple = (key_fn(state), mishap_key(state), regions[state].value)
        if rps is not None:
            parts += (rps[state].value,)
        return parts

    classes: dict[tuple, list[RiskState]] = {}
    for s in sorted(model.states, key=model.label):
        classes.setdefault(class_key(s), []).append(s)

    # maps are keyed by state names, whose hashes are cached, not by states
    rep_of: dict[str, RiskState] = {}
    representatives: list[RiskState] = []
    labels: dict[RiskState, str] = {}
    for members in classes.values():
        mishap_mix = {is_mishap(s) for s in members}
        if len(mishap_mix) > 1:
            raise IncompatibleMerge(
                "a class would span mishap and non-mishap states: "
                + ", ".join(sorted(model.label(s) for s in members))
            )
        representative = min(maxima(members), key=model.label)
        representatives.append(representative)
        for s in members:
            rep_of[s.name] = representative
        if len(members) > 1:
            labels[representative] = "|".join(
                sorted(model.label(s) for s in members)
            )
        elif representative in model.labels:
            labels[representative] = model.labels[representative]

    # parallel edges merge their weights first; one Transition per merged edge
    merged: dict[tuple[str, str, str], list] = {}
    for t in model.transitions:
        src, tgt = rep_of[t.source.name], rep_of[t.target.name]
        if src is tgt and t.source.name != t.target.name:
            continue  # self-loop induced by the merge
        key = (src.name, t.action.name, tgt.name)
        edge = merged.get(key)
        if edge is None:
            merged[key] = [src, t.action, tgt, t.pr, t.cs]
        else:
            edge[3] = _merge_max(edge[3], t.pr)
            edge[4] = _merge_min(edge[4], t.cs)
    row = Transition._row
    transitions = tuple(
        row(src, action, tgt, pr, cs)
        for _, (src, action, tgt, pr, cs) in sorted(merged.items())
    )

    sv: dict[RiskState, Severity] = {}
    for s, severity in model.sv.items():
        rep = rep_of[s.name]
        sv[rep] = sv_max([severity, sv[rep]]) if rep in sv else severity
    return replace(
        model,
        states=frozenset(representatives),
        transitions=transitions,
        initial=frozenset(rep_of[s.name] for s in model.initial),
        sv=sv,
        labels=labels,
    )


def _merge_max(a: Optional[float], b: Optional[float]) -> Optional[float]:
    present = [x for x in (a, b) if x is not None]
    return max(present) if present else None


def _merge_min(a: Optional[int], b: Optional[int]) -> Optional[int]:
    present = [x for x in (a, b) if x is not None]
    return min(present) if present else None


@dataclass(frozen=True)
class DropRule:
    """Matches transitions by action name, plus optional source-region and
    self-loop constraints."""

    action: str
    source_region: Optional[Region] = None
    self_loop: Optional[bool] = None

    def matches(self, t: Transition, regions: RegionAssignment) -> bool:
        if t.action.name != self.action:
            return False
        if self.source_region is not None and regions[t.source] is not self.source_region:
            return False
        if self.self_loop is not None and (t.source == t.target) != self.self_loop:
            return False
        return True


def drop_irrelevant(model: RiskStructure, rules: Sequence[DropRule]) -> RiskStructure:
    """Remove transitions matched by explicit drop rules, then prune states
    that became unreachable from the initial region."""
    regions = assign_regions(model)
    kept = tuple(
        t
        for t in model.transitions
        if not any(rule.matches(t, regions) for rule in rules)
    )
    return _prune_unreachable(replace(model, transitions=kept))


def _prune_unreachable(model: RiskStructure) -> RiskStructure:
    reachable = frozenset().union(*(reach(model, s) for s in model.initial))
    transitions = tuple(
        t for t in model.transitions if t.source in reachable and t.target in reachable
    )
    return replace(
        model,
        states=reachable,
        transitions=transitions,
        sv={s: v for s, v in model.sv.items() if s in reachable},
        labels={s: l for s, l in model.labels.items() if s in reachable},
    )


def collapse_safe_chains(model: RiskStructure) -> RiskStructure:
    """Collapse runs of mitigation transitions through pass-through states.

    A state is pass-through when its only outgoing transition is a single
    mitigation, it has exactly one (mitigation) predecessor, and it shares a
    region with both neighbours; the run becomes one composite transition
    with the product of the probabilities and the sum of the costs.
    Applied to a fixed point, so collapsing twice changes nothing.
    """
    regions = assign_regions(model)
    current = model
    while True:
        collapsed = _collapse_once(current, regions)
        if collapsed is None:
            return current
        current = collapsed


def _collapse_once(
    model: RiskStructure, regions: RegionAssignment
) -> Optional[RiskStructure]:
    outgoing, incoming = model.outgoing(), model.incoming()

    def pass_through(s: RiskState) -> bool:
        outs = outgoing[s]
        ins = incoming[s]
        if len(outs) != 1 or len(ins) != 1:
            return False
        if outs[0].action.kind is not ActionClass.MITIGATION:
            return False
        if ins[0].action.kind is not ActionClass.MITIGATION:
            return False
        if s in model.initial or outs[0].target == s or ins[0].source == s:
            return False
        return regions[ins[0].source] is regions[s] is regions[outs[0].target]

    for mid in sorted(model.states, key=model.label):
        if not pass_through(mid):
            continue
        first, second = incoming[mid][0], outgoing[mid][0]
        composite = Transition(
            source=first.source,
            action=replace(
                second.action,
                name=f"{first.action.name};{second.action.name}",
                effect=_compose_effects(first, second),
            ),
            target=second.target,
            pr=_compose_pr(first.pr, second.pr),
            cs=_compose_cs(first.cs, second.cs),
        )
        transitions = tuple(
            sorted(
                [t for t in model.transitions if t not in (first, second)]
                + [composite],
                key=lambda t: t.key(),
            )
        )
        return replace(
            model,
            states=frozenset(model.states - {mid}),
            transitions=transitions,
            sv={s: v for s, v in model.sv.items() if s != mid},
            labels={s: l for s, l in model.labels.items() if s != mid},
        )
    return None


def _compose_effects(first: Transition, second: Transition):
    """Net effect of the two steps: every hazard that changed overall."""
    effects = {}
    for hid in first.source.hazard_ids:
        end = second.target.phase(hid)
        if first.source.phase(hid) != end:
            effects[hid] = end
    return tuple(sorted(effects.items()))


def _compose_pr(a: Optional[float], b: Optional[float]) -> Optional[float]:
    if a is None and b is None:
        return None
    return (a if a is not None else 1.0) * (b if b is not None else 1.0)


def _compose_cs(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None and b is None:
        return None
    return (a or 0) + (b or 0)
