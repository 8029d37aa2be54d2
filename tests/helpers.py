"""Independent oracles and random-instance generators for the test suite.

The oracles deliberately avoid the library's search code: reachability and
path probabilities are recomputed by plain exhaustive enumeration so the
implementations are checked against a second, independent route.
"""

from __future__ import annotations

import itertools
from random import Random


from riskstruct import (
    Action,
    ActionClass,
    Catalog,
    EndangermentRule,
    HazardId,
    HazardPhaseModel,
    MishapRule,
    MitigationRule,
    ModelOptions,
    Phase,
    PhaseGuard,
    RiskState,
    RiskStructure,
    Severity,
    Transition,
    all_inactive,
    is_mishap,
    legal_phase_step,
    phase_leq,
    state_from_phases,
)
from riskstruct.core import StateSyntaxError
from riskstruct.order import phase_lt


def enumerate_tuple_space(hazards) -> list[RiskState]:
    """Every state of the full tuple space, by brute-force enumeration."""
    spaces = [h.phases() for h in hazards]
    return [
        RiskState(tuple((h.id, p) for h, p in zip(hazards, combo)))
        for combo in itertools.product(*spaces)
    ]


def brute_force_parse_state(text: str, hazards) -> RiskState:
    """A state name read token by token, every token checked on its own."""
    if not hazards:
        if text:
            raise StateSyntaxError(f"state {text!r} names hazards but none are declared")
        return RiskState(())
    phases: dict[str, Phase] = {}
    if text:
        for token in text.split(","):
            hid, sep, ph = token.partition(":")
            if not sep:
                raise StateSyntaxError(f"malformed state component {token!r}")
            if hid in phases:
                raise StateSyntaxError(f"hazard {hid!r} listed twice in {text!r}")
            phases[hid] = Phase.parse(ph)
    return state_from_phases(hazards, phases)


# Per-hazard definitions of the state equivalences, written with the phase
# order only: inactive is its top, the mishap phase its bottom, and the phases
# strictly above active are the mitigated ones and inactive.


def brute_force_hazard_equiv(s: RiskState, t: RiskState) -> bool:
    top = Phase.inactive()
    return all(phase_leq(top, p) == phase_leq(top, t.phase(h)) for h, p in s.entries)


def brute_force_mishap_equiv(s: RiskState, t: RiskState) -> bool:
    bottom = Phase.mishap()
    return all(
        phase_leq(p, bottom) == phase_leq(t.phase(h), bottom) for h, p in s.entries
    )


def brute_force_mitigation_equiv(s: RiskState, t: RiskState) -> bool:
    active = Phase.active()
    return brute_force_hazard_equiv(s, t) and all(
        phase_lt(active, p) == phase_lt(active, t.phase(h)) for h, p in s.entries
    )


def brute_force_reach(model, start, classes=None) -> frozenset:
    """Reachability by repeated scanning over the full transition list."""
    seen = {start}
    changed = True
    while changed:
        changed = False
        for t in model.transitions:
            if classes is not None and t.action.kind not in classes:
                continue
            if t.source in seen and t.target not in seen:
                seen.add(t.target)
                changed = True
    return frozenset(seen)


def brute_force_max_path_product(model, start, targets) -> float:
    """Maximum product of pr over all simple paths from start into targets."""
    targets = frozenset(targets)
    if start in targets:
        return 1.0
    adjacency: dict[RiskState, list[Transition]] = {}
    for t in model.transitions:
        adjacency.setdefault(t.source, []).append(t)
    best = 0.0

    def walk(state, product, visited):
        nonlocal best
        for t in adjacency.get(state, ()):
            if t.target in visited:
                continue
            p = product * (t.pr if t.pr is not None else 1.0)
            if t.target in targets:
                best = max(best, p)
            else:
                walk(t.target, p, visited | {t.target})

    walk(start, 1.0, frozenset({start}))
    return best


def random_structure(rng: Random, max_states: int = 12) -> RiskStructure:
    """A small hand-built structure with legal single-hazard transitions."""
    n_h = rng.randint(1, 3)
    hazards = tuple(
        HazardPhaseModel(HazardId(f"H{i}"), rng.randint(1, 2)) for i in range(n_h)
    )
    space = enumerate_tuple_space(hazards)
    rng.shuffle(space)
    base = all_inactive(hazards)
    chosen = [base] + [s for s in space if s != base][: max_states - 1]
    state_set = set(chosen)
    transitions = []
    counter = itertools.count(1)
    order = sorted(state_set, key=lambda s: s.name)
    for s in order:
        if is_mishap(s):
            continue
        for t in order:
            diffs = [h for h in s.hazard_ids if s.phase(h) != t.phase(h)]
            if len(diffs) != 1:
                continue
            h = diffs[0]
            for kind in (
                ActionClass.ENDANGERMENT,
                ActionClass.MITIGATION,
                ActionClass.MISHAP_ACTION,
            ):
                if legal_phase_step(s.phase(h), kind, t.phase(h)):
                    break
            else:
                continue
            if rng.random() < 0.45:
                action = Action(f"a{next(counter)}", kind, ((h, t.phase(h)),))
                transitions.append(
                    Transition(
                        s,
                        action,
                        t,
                        pr=round(rng.random(), 4),
                        cs=rng.randint(0, 9)
                        if kind is ActionClass.MITIGATION
                        else None,
                    )
                )
    sv = {
        s: rng.choice((Severity.MARGINAL, Severity.CRITICAL, Severity.FATAL))
        for s in state_set
        if is_mishap(s)
    }
    return RiskStructure(
        hazards=hazards,
        states=frozenset(state_set),
        actions=tuple(sorted({t.action for t in transitions}, key=lambda a: a.name)),
        transitions=tuple(sorted(transitions, key=lambda t: t.key())),
        initial=frozenset({base}),
        sv=sv,
    )


def _random_guard(rng: Random, others, hazards) -> PhaseGuard:
    constraints = {}
    for hid in others:
        if rng.random() < 0.25:
            model = next(h for h in hazards if h.id == hid)
            pool = list(model.phases())
            size = rng.randint(1, len(pool))
            constraints[hid] = tuple(rng.sample(pool, size))
    return PhaseGuard.of(constraints)


def random_catalog(rng: Random) -> Catalog:
    """A random small catalog whose mitigation rules all strictly improve the
    state (no moves between two mitigated phases), so order-based and
    rule-based classification must agree on every constructed transition."""
    while True:
        n_h = rng.randint(1, 4)
        ns = [rng.randint(1, 4) for _ in range(n_h)]
        size = 1
        for n in ns:
            size *= n + 3
        if size <= 400:
            break
    hazards = tuple(
        HazardPhaseModel(HazardId(f"H{i}"), n) for i, n in enumerate(ns)
    )
    ids = [h.id for h in hazards]
    counter = itertools.count(1)
    endangerments, mishaps, mitigations = [], [], []
    for h in hazards:
        if rng.random() < 0.9:
            endangerments.append(
                EndangermentRule(
                    name=f"e{next(counter)}",
                    activates=(h.id,),
                    pr=round(rng.uniform(0.01, 0.99), 3),
                    guard=_random_guard(rng, [i for i in ids if i != h.id], hazards),
                )
            )
    if n_h >= 2 and rng.random() < 0.4:
        pair = tuple(sorted(rng.sample(ids, 2)))
        endangerments.append(
            EndangermentRule(
                name=f"e{next(counter)}",
                activates=pair,
                pr=round(rng.uniform(0.01, 0.99), 3),
            )
        )
    if rng.random() < 0.7:
        k = rng.randint(1, min(2, n_h))
        subset = tuple(sorted(rng.sample(ids, k)))
        mishaps.append(
            MishapRule(
                name=f"x{next(counter)}",
                requires=subset,
                sets=subset,
                pr=round(rng.uniform(0.01, 0.99), 3),
                sv=rng.choice((Severity.MARGINAL, Severity.CRITICAL, Severity.FATAL)),
                guard=_random_guard(
                    rng, [i for i in ids if i not in subset], hazards
                ),
            )
        )
    for h in hazards:
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.7:
                target = Phase.mitigated(rng.randint(1, h.n_mitigations))
                sources = (Phase.active(),)
            else:
                target = Phase.inactive()
                sources = tuple(
                    rng.sample(
                        [Phase.active()]
                        + [Phase.mitigated(j) for j in range(1, h.n_mitigations + 1)],
                        rng.randint(1, h.n_mitigations + 1),
                    )
                )
            guard_map = {h.id: sources}
            other = _random_guard(rng, [i for i in ids if i != h.id], hazards)
            guard_map.update(dict(other.constraints))
            mitigations.append(
                MitigationRule(
                    name=f"m{next(counter)}",
                    mitigates=((h.id, target),),
                    pr=round(rng.uniform(0.01, 0.99), 3),
                    cs=rng.randint(0, 20),
                    guard=PhaseGuard.of(guard_map),
                )
            )
    return Catalog(
        hazards=hazards,
        endangerments=tuple(endangerments),
        mishaps=tuple(mishaps),
        mitigations=tuple(mitigations),
        options=ModelOptions(max_subset_size=2),
    )


def random_states(rng: Random, hazards, count: int) -> list[RiskState]:
    space = enumerate_tuple_space(hazards)
    return [rng.choice(space) for _ in range(count)]
