"""Model reduction: equivalence quotients, explicit drop rules, chain collapse.

Quotients merge states that are equivalent, agree on the mishap phase of
every hazard and share a risk region, optionally requiring equal risk
priority.  A class can never mix mishap and non-mishap states, since the
region is ``mishap`` exactly on the mishap states.  Each equivalence is one
key function of :mod:`riskstruct.order`; this module only looks it up.
Merged states keep the phases of a maximal member and a display label
joining the member names.  Drop rules and chain collapse walk the model's
cached adjacency.  Regions and risk priorities are those of the model's own
options, ``region_policy`` and ``bands``.  Each reduction returns a new
model, whose actions are those of its transitions.

Chain collapse is one pass over the states in label order.  A collapse
changes no other state's edge counts, action classes or neighbour regions;
it can only close a self-loop, which stops a neighbour from being
pass-through.  So the pass collapses the states, in the order, that
repeatedly collapsing the label-least pass-through state does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from operator import add, mul
from typing import Any, Callable, Optional, Sequence

from .core import (
    ActionClass,
    RiskModelError,
    RiskState,
    RiskStructure,
    Severity,
    Transition,
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

    classes: dict[tuple, list[RiskState]] = {}  # members in label order
    for s in model.sorted_states():
        classes.setdefault(class_key(s), []).append(s)

    # maps are keyed by state names, whose hashes are cached, not by states
    rep_of: dict[str, RiskState] = {}
    representatives: list[RiskState] = []
    labels: dict[RiskState, str] = {}
    for members in classes.values():
        representative = min(maxima(members), key=model.label)
        representatives.append(representative)
        for s in members:
            rep_of[s.name] = representative
        if len(members) > 1:
            labels[representative] = "|".join(map(model.label, members))
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
            edge[3] = _combine(max, edge[3], t.pr)
            edge[4] = _combine(min, edge[4], t.cs)
    transitions = tuple(
        Transition(src, action, tgt, pr, cs, checked=False)
        for src, action, tgt, pr, cs in merged.values()
    )

    sv: dict[RiskState, Severity] = {}
    for s, severity in model.sv.items():
        rep = rep_of[s.name]
        sv[rep] = sv_max([severity, sv[rep]]) if rep in sv else severity
    try:
        return replace(
            model,
            states=frozenset(representatives),
            transitions=transitions,
            initial=frozenset(rep_of[s.name] for s in model.initial),
            sv=sv,
            labels=labels,
        )
    except ValueError as exc:  # a joined label can be another state's label
        raise RiskModelError(f"quotient: {exc}") from None


def _combine(op: Callable, a: Any, b: Any) -> Any:
    """``op(a, b)``, or whichever of the weights ``a`` and ``b`` is not None;
    None if both are."""
    if a is None or b is None:
        return b if a is None else a
    return op(a, b)


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
    return _restrict(model, reachable, transitions)


def _restrict(
    model: RiskStructure, states: frozenset[RiskState], transitions: tuple[Transition, ...]
) -> RiskStructure:
    """``model`` on ``states``, a subset of its states, with ``transitions``
    between them, and the severities and labels of those states."""
    return replace(
        model,
        states=states,
        transitions=transitions,
        sv={s: v for s, v in model.sv.items() if s in states},
        labels={s: l for s, l in model.labels.items() if s in states},
    )


def collapse_safe_chains(model: RiskStructure) -> RiskStructure:
    """Collapse runs of mitigation transitions through pass-through states.

    A state is pass-through when its only outgoing transition is a single
    mitigation, it has exactly one (mitigation) predecessor, and it shares a
    region with both neighbours; the run becomes one composite transition
    with the product of the probabilities and the sum of the costs, made
    with ``checked=False`` as :func:`quotient` and the loader make theirs.
    Applied to a fixed point, so collapsing twice changes nothing.  Raises
    :class:`RiskModelError` for a composite that no action can label (a
    quotient's edges can compose to a mitigation that moves a hazard to its
    active phase), and, as ``collapse:`` and the model's line, for a result
    that is no model: the first edge in label order given twice, else two
    actions of one name.
    """
    regions = assign_regions(model)
    # each state's single in-edge and out-edge, by state name; a state with
    # another number of them has no entry
    in_edge = {s.name: ts[0] for s, ts in model.incoming().items() if len(ts) == 1}
    out_edge = {s.name: ts[0] for s, ts in model.outgoing().items() if len(ts) == 1}
    collapsed: set[str] = set()
    replaced: set[int] = set()  # the ids of the edges that composites replaced
    composites: list[Transition] = []
    for mid in model.sorted_states():
        first, second = in_edge.get(mid.name), out_edge.get(mid.name)
        if first is None or second is None or mid in model.initial:
            continue
        source, target = first.source, second.target
        if (
            first.action.kind is not ActionClass.MITIGATION
            or second.action.kind is not ActionClass.MITIGATION
            or mid in (source, target)
            or not regions[source] is regions[mid] is regions[target]
        ):
            continue
        pairs = zip(source.entries, target.entries)
        effect = tuple(end for begin, end in pairs if begin != end)
        name = f"{first.action.name};{second.action.name}"
        try:
            action = replace(second.action, name=name, effect=effect)
        except ValueError as exc:  # a quotient's edges can compose to no action
            raise RiskModelError(f"collapse: {exc}") from None
        pr = _combine(mul, first.pr, second.pr)
        cs = _combine(add, first.cs, second.cs)
        composite = Transition(source, action, target, pr, cs, checked=False)
        if out_edge.get(source.name) is first:
            out_edge[source.name] = composite
        if in_edge.get(target.name) is second:
            in_edge[target.name] = composite
        collapsed.add(mid.name)
        replaced.update((id(first), id(second)))
        composites.append(composite)
    if not collapsed:
        return model

    states = frozenset(s for s in model.states if s.name not in collapsed)
    edges = tuple(t for t in (*model.transitions, *composites) if id(t) not in replaced)
    try:
        return _restrict(model, states, edges)
    except ValueError as exc:  # an edge given twice, or two actions of one name
        raise RiskModelError(f"collapse: {exc}") from None
