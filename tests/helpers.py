"""Independent oracles and random-instance generators for the test suite.

The oracles deliberately avoid the library's search code: reachability and
path probabilities are recomputed by plain exhaustive enumeration so the
implementations are checked against a second, independent route.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from random import Random


from riskstruct import (
    Action,
    ActionClass,
    Catalog,
    ConstructionLog,
    EndangermentRule,
    HazardId,
    HazardPhaseModel,
    MishapRule,
    MitigationRule,
    ModelOptions,
    OperationalSituation,
    Phase,
    PhaseGuard,
    PhaseKind,
    RiskState,
    RiskStructure,
    Severity,
    Transition,
    all_inactive,
    assign_regions,
    construct_rs,
    is_mishap,
    legal_phase_step,
    make_plan,
    phase_leq,
    risk_priorities,
    state_from_phases,
)
from riskstruct.analysis import DELTA_M, Region
from riskstruct.core import RiskModelError, StateSyntaxError
from riskstruct.order import mitigation_lt, phase_lt


def chain_catalog(n: int, k: int = 2, seed: int = 0) -> dict:
    """The benchmark's chain catalog (``bench/chain.py``) with ``n`` hazards,
    as the JSON value of a catalog file."""
    path = Path(__file__).resolve().parents[1] / "bench" / "chain.py"
    spec = importlib.util.spec_from_file_location("chain", path)
    chain = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(chain)
    return chain.chain_catalog(n, k, seed)


def enumerate_tuple_space(hazards) -> list[RiskState]:
    """Every state of the full tuple space, by brute-force enumeration."""
    spaces = [h.phases() for h in hazards]
    return [
        RiskState(tuple((h.id, p) for h, p in zip(hazards, combo)))
        for combo in itertools.product(*spaces)
    ]


def brute_force_is_mishap(state: RiskState) -> bool:
    """Some hazard's phase, read from the entries, is the mishap phase."""
    return any(p.kind is PhaseKind.MISHAP for _, p in state.entries)


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


def brute_force_maxima(members) -> list[RiskState]:
    """The members no other member strictly dominates: the all-pairs scan."""
    return [s for s in members if not any(mitigation_lt(s, t) for t in members)]


def brute_force_dot(model) -> str:
    """The DOT export rendered as one list of lines, without the writer's
    batches: nodes by label, then edges by (source label, action, target
    label)."""
    regions = assign_regions(model)
    style = {Region.SAFE: "solid", Region.HAZARDOUS: "dashed", Region.MISHAP: "dotted"}

    def quote(text: str) -> str:
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph risk_structure {", "  rankdir=LR;", "  node [shape=ellipse];"]
    for s in sorted(model.states, key=model.label):
        attrs = [f"style={style[regions[s]]}"]
        if s in model.initial:
            attrs.append("peripheries=2")
        lines.append(f"  {quote(model.label(s))} [{', '.join(attrs)}];")
    edges = sorted(
        model.transitions,
        key=lambda t: (model.label(t.source), t.action.name, model.label(t.target)),
    )
    for t in edges:
        weights = [f"{float(f'{t.pr:.6g}') or 0.0:.6g}"] if t.pr is not None else []
        weights += [str(t.cs)] if t.cs is not None else []
        text = t.action.name + (f"({','.join(weights)})" if weights else "")
        lines.append(
            f"  {quote(model.label(t.source))} -> {quote(model.label(t.target))} "
            f"[label={quote(text)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _options_value(options: ModelOptions) -> dict:
    """The JSON value of ``options`` in a catalog or model file."""
    return {
        "max_subset_size": options.max_subset_size,
        "bands": {
            "l_below": options.bands.l_below,
            "h_at_least": options.bands.h_at_least,
        },
        "region_policy": options.region_policy,
    }


def brute_force_model_text(model, log=ConstructionLog()) -> str:
    """The model file written as one ``json.dumps`` of plain dicts, without
    the writer's row templates: states, ``initial`` and ``sv`` by label,
    transitions by (source label, action, target label), actions by name,
    and each probability to six significant digits, a zero as ``0.0``."""
    label = model.label
    actions = {t.action.name: t.action for t in model.transitions}
    edges = sorted(
        model.transitions,
        key=lambda t: (label(t.source), t.action.name, label(t.target)),
    )
    value = {
        "hazards": [
            {
                "id": h.id,
                "description": h.hazard.description,
                "n_mitigations": h.n_mitigations,
            }
            for h in model.hazards
        ],
        "states": [
            {"name": s.name, "label": label(s)} for s in sorted(model.states, key=label)
        ],
        "initial": sorted(map(label, model.initial)),
        "actions": [
            {
                "name": a.name,
                "class": a.kind.value,
                "domains": sorted(a.domains),
                "effect": {h: p.render() for h, p in sorted(a.effect, key=lambda e: e[0])},
            }
            for _, a in sorted(actions.items())
        ],
        "transitions": [
            {
                "source": label(t.source),
                "action": t.action.name,
                "target": label(t.target),
                "pr": None if t.pr is None else float(f"{t.pr:.6g}") or 0.0,
                "cs": t.cs,
            }
            for t in edges
        ],
        "sv": {label(s): model.sv[s].value for s in sorted(model.sv, key=label)},
        "log": [
            {
                "increment": r.increment,
                "sweep": r.sweep,
                "states_added": r.states_added,
                "transitions_added": r.transitions_added,
                "states_total": r.states_total,
                "non_mishap_total": r.non_mishap_total,
                "transitions_total": r.transitions_total,
            }
            for r in log.records
        ],
        "options": _options_value(model.options),
    }
    situation = model.situation
    if situation is not None:
        value["situation"] = {
            "name": situation.name,
            "initial": list(situation.initial) if situation.initial else None,
            "invariant_predicates": list(situation.invariant_predicates),
            "notes": situation.notes,
        }
    features = model.features
    if features is not None:
        value["features"] = {
            "universe": [
                {
                    "name": f.name,
                    "variant": f.variant.value,
                    "status": f.status.value,
                    "fallback": f.fallback,
                }
                for f in features.universe
            ],
            "effects": [
                {
                    "hazard": hid,
                    "phase": phase.render(),
                    "feature": e.feature,
                    "variant": e.variant.value,
                    "status": e.status.value,
                }
                for hid, phase, e in features.effects
            ],
            "priority": list(features.priority),
        }
    return json.dumps(value, indent=2, ensure_ascii=False) + "\n"


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


def with_bands(model, bands):
    """``model`` with ``bands`` as the band thresholds of its options."""
    return replace(model, options=replace(model.options, bands=bands))


def with_policy(model, policy):
    """``model`` with ``policy`` as the region policy of its options."""
    return replace(model, options=replace(model.options, region_policy=policy))


def brute_force_best_plan(model, start, target, classes):
    """Exhaustive simple-path search with monotone pruning: the best plan
    from ``start`` to ``target`` over transitions of ``classes``, or None.

    Plans rank by worst risk priority, total cost, length and action names.
    Every component only grows as a path is extended, so a prefix ranked at
    or above the best complete plan cannot improve on it.  Among plans of
    equal rank the first in transition-key order wins.
    """
    rps = risk_priorities(model)
    adjacency: dict[RiskState, list[Transition]] = {}
    for t in sorted(model.transitions, key=lambda t: t.key()):
        adjacency.setdefault(t.source, []).append(t)
    best = None

    def key(path):
        states = [start, *(t.target for t in path)]
        return (
            max(rps[s].rank for s in states),
            sum(t.cs or 0 for t in path),
            len(path),
            tuple(t.action.name for t in path),
        )

    def extend(current, path, visited):
        nonlocal best
        for t in adjacency.get(current, ()):
            if t.action.kind not in classes or t.target in visited:
                continue
            path.append(t)
            if best is None or key(path) < key(best):
                if t.target == target:
                    best = tuple(path)
                else:
                    visited.add(t.target)
                    extend(t.target, path, visited)
                    visited.remove(t.target)
            path.pop()

    extend(start, [], {start})
    return None if best is None else make_plan(model, best)


def brute_force_plans(model, start, allow_ordinary=False) -> list:
    """``plan_mitigations`` by :func:`brute_force_best_plan` to each maximal
    state of the scanned mitigation closure, in label order."""
    classes = {ActionClass.MITIGATION}
    if allow_ordinary:
        classes.add(ActionClass.ORDINARY)
    closure = brute_force_reach(model, start, DELTA_M)
    plans = []
    for target in sorted(brute_force_maxima(closure), key=model.label):
        if target != start:
            plan = brute_force_best_plan(model, start, target, classes)
            if plan is not None:
                plans.append(plan)
    return plans


def brute_force_collapse(model) -> RiskStructure:
    """``collapse_safe_chains`` by its definition: while the model has a
    pass-through state, collapse the label-least one, on the model as it
    stands, with regions those of the given model; a composite is made
    without the phase-graph check, and one that no action can label is
    refused.  Then refuse a result that holds a key twice, naming the first
    such edge by (source label, action name, target label), and else one
    with two different actions of one name, naming the least such name.  The
    model as it stands is kept as its states and edges, since it may hold an
    edge twice, which no model can."""
    regions = assign_regions(model)
    states, transitions = set(model.states), list(model.transitions)
    while True:
        for mid in sorted(states, key=model.label):
            ins = [t for t in transitions if t.target == mid]
            outs = [t for t in transitions if t.source == mid]
            if len(ins) != 1 or len(outs) != 1:
                continue
            first, second = ins[0], outs[0]
            if {first.action.kind, second.action.kind} != {ActionClass.MITIGATION}:
                continue
            if mid in model.initial or mid in (first.source, second.target):
                continue
            if regions[first.source] == regions[mid] == regions[second.target]:
                break
        else:
            break
        source, target = first.source, second.target
        weights = [t.pr for t in (first, second) if t.pr is not None]
        costs = [t.cs for t in (first, second) if t.cs is not None]
        try:
            composite = Transition(
                source,
                Action(
                    f"{first.action.name};{second.action.name}",
                    second.action.kind,
                    tuple(
                        (h, target.phase(h))
                        for h in source.hazard_ids
                        if source.phase(h) != target.phase(h)
                    ),
                    second.action.domains,
                ),
                target,
                pr=math.prod(weights) if weights else None,
                cs=sum(costs) if costs else None,
                checked=False,
            )
        except ValueError as exc:
            raise RiskModelError(f"collapse: {exc}") from None
        states.discard(mid)
        transitions = sorted(
            [t for t in transitions if t is not first and t is not second] + [composite],
            key=lambda t: t.key(),
        )
    label = model.label
    for t in sorted(transitions, key=lambda t: (label(t.source), t.action.name, label(t.target))):
        if sum(u.key() == t.key() for u in transitions) > 1:
            edge = f"{model.label(t.source)} -{t.action.name}-> {model.label(t.target)}"
            raise RiskModelError(f"collapse: transition {edge} is given twice")
    actions = {t.action for t in transitions}
    for name in sorted(a.name for a in actions):
        if sum(a.name == name for a in actions) > 1:
            raise RiskModelError(f"collapse: two actions are named {name!r}")
    return replace(
        model,
        states=frozenset(states),
        transitions=tuple(transitions),
        sv={s: v for s, v in model.sv.items() if s in states},
        labels={s: l for s, l in model.labels.items() if s in states},
    )


@dataclass(frozen=True)
class DiffRefusal:
    """``diff`` refuses its models: two states of the first (``model`` 0) or
    the second (1) read alike; ``labels`` are theirs, in label order."""

    model: int
    labels: tuple[str, str]


def brute_force_diff(model_a, model_b):
    """The lines of ``riskstruct diff`` of two models, the first over a
    subset of the second's hazards with the same phases, by the README's
    rule: a state is its label's ``|``-parts, sorted, where a part of the
    first model that is the canonical name of a state over its hazards
    stands for that state with each hazard of the second model it lacks
    inactive, named over the second model's hazards.  A transition is its
    ends, its action's name and its weights as ``weights_text`` writes them.
    Two states of one model that read alike give a :class:`DiffRefusal` of
    the pair, among all such pairs, whose greater label is least."""

    def member(part: str) -> str:
        try:
            state = brute_force_parse_state(part, model_a.hazards)
        except RiskModelError:
            return part
        if state.name != part:
            return part
        phases = dict(state.entries)
        return ",".join(
            f"{h.id}:{phases.get(h.id, Phase.inactive()).render()}" for h in model_b.hazards
        )

    def identities(model, rewrite):
        read = {s: "|".join(sorted(map(rewrite, model.label(s).split("|")))) for s in model.states}
        groups: dict[str, list[str]] = {}
        for s, text in read.items():
            groups.setdefault(text, []).append(model.label(s))
        pairs = [sorted(labels)[:2] for labels in groups.values() if len(labels) > 1]
        return read, min(pairs, key=lambda pair: pair[1], default=None)

    def rounded(pr) -> str:
        # six significant digits, and a zero given as -0.0 is 0
        text = f"{pr:.6g}"
        return "0" if text == "-0" else text

    sides = []
    for i, (model, rewrite) in enumerate(((model_a, member), (model_b, str))):
        read, pair = identities(model, rewrite)
        if pair is not None:
            return DiffRefusal(i, tuple(pair))
        edges = {}
        for t in model.transitions:
            pr = None if t.pr is None else rounded(t.pr)
            weights = ",".join(w for w in (pr, None if t.cs is None else str(t.cs)) if w is not None)
            line = f"{read[t.source]} -{t.action.name}-> {read[t.target]}"
            edges[read[t.source], t.action.name, pr, t.cs, read[t.target]] = (
                f"{line} ({weights})" if weights else line
            )
        sides.append((set(read.values()), edges))
    (states_a, edges_a), (states_b, edges_b) = sides
    return (
        [f"- state {text}" for text in sorted(states_a - states_b)]
        + [f"+ state {text}" for text in sorted(states_b - states_a)]
        + sorted(f"- transition {edges_a[key]}" for key in edges_a.keys() - edges_b.keys())
        + sorted(f"+ transition {edges_b[key]}" for key in edges_b.keys() - edges_a.keys())
    )


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
        for s in order
        if is_mishap(s)
    }
    return RiskStructure(
        hazards=hazards,
        states=frozenset(state_set),
        transitions=tuple(sorted(transitions, key=lambda t: t.key())),
        initial=frozenset({base}),
        sv=sv,
    )


def random_shared_name_structure(rng: Random) -> RiskStructure:
    """:func:`random_structure` with few action names and costs, so that
    plans tie on cost, length and action names: mitigations are renamed
    ``a`` or ``b`` and cost 0 or 1, and ordinary edges ``o`` join random
    pairs of states.  The renamed and added edges are unchecked, as a
    quotient's edges are."""
    model = random_structure(rng)
    names = {
        n: Action(n, ActionClass.MITIGATION, ()) for n in ("a", "b")
    }
    ordinary = Action("o", ActionClass.ORDINARY, ())
    edges: dict[tuple[str, str, str], Transition] = {}
    for t in model.transitions:
        if t.action.kind is ActionClass.MITIGATION:
            t = Transition(
                t.source, names[rng.choice("ab")], t.target,
                pr=t.pr, cs=rng.randint(0, 1), checked=False,
            )
        edges.setdefault(t.key(), t)
    free = sorted((s for s in model.states if not is_mishap(s)), key=lambda s: s.name)
    for _ in range(len(free)):
        t = Transition(
            rng.choice(free), ordinary, rng.choice(free),
            cs=rng.randint(0, 1), checked=False,
        )
        edges.setdefault(t.key(), t)
    transitions = sorted(edges.values(), key=lambda t: t.key())
    return RiskStructure(
        hazards=model.hazards,
        states=model.states,
        transitions=tuple(transitions),
        initial=model.initial,
        sv=model.sv,
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


# --- model files --------------------------------------------------------------


@dataclass
class LoadedModel:
    """What :func:`brute_force_model_from_dict` reads from a model file."""

    states: frozenset
    labels: dict  # RiskState -> label, where it differs from the name
    initial: frozenset
    sv: dict  # RiskState -> Severity
    transitions: tuple  # by source label, action name and target label


def brute_force_model_from_dict(data) -> LoadedModel:
    """A model file read row by row: each state name parsed token by token,
    each transition built by ``Transition(..., checked=False)``, and the
    structure checked on sets of states.  Raises ``RiskModelError`` with the
    line ``model_from_dict`` gives.  The file is taken to be unambiguous (no
    text naming two states, no state, action or transition listed twice):
    the later row would silently win here."""
    try:
        return _brute_force_load(data)
    except KeyError as exc:
        raise RiskModelError(f"missing or unknown entry {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise RiskModelError(f"malformed model: {exc}") from None


def _text(value, anchor: str) -> str:
    """A row's name or label, which must be a JSON string."""
    if not isinstance(value, str):
        raise RiskModelError(f"{anchor}: must be a string, got {type(value).__name__}")
    return value


def _brute_force_load(data) -> LoadedModel:
    hazards = tuple(
        HazardPhaseModel(HazardId(str(h["id"])), int(h["n_mitigations"]))
        for h in data["hazards"]
    )
    by_label: dict[str, RiskState] = {}
    labels: dict[RiskState, str] = {}
    states = set()
    for i, entry in enumerate(data["states"]):
        state = brute_force_parse_state(_text(entry["name"], f"states[{i}].name"), hazards)
        label = _text(entry.get("label", state.name), f"states[{i}].label")
        states.add(state)
        by_label[label] = state
        by_label.setdefault(state.name, state)
        if label != state.name:
            labels[state] = label
    actions = {}
    for a in data.get("actions", ()):
        effect = tuple(
            (str(h), Phase.parse(str(p))) for h, p in a.get("effect", {}).items()
        )
        actions[str(a["name"])] = Action(
            str(a["name"]),
            ActionClass(str(a["class"])),
            effect,
            tuple(a.get("domains", ())),
        )
    transitions = []
    for i, t in enumerate(data.get("transitions", ())):
        names = [t["source"], t["target"], t["action"]]
        source, target, action = (
            _text(name, f"transitions[{i}].{key}")
            for name, key in zip(names, ("source", "target", "action"))
        )
        source, target, action = by_label[source], by_label[target], actions[action]
        pr = t.get("pr")
        if pr is not None and type(pr) not in (int, float):
            raise RiskModelError(
                f"transitions[{i}].pr: must be a number, got {type(pr).__name__}"
            )
        transitions.append(
            Transition(
                source=source,
                action=action,
                target=target,
                pr=None if pr is None else float(pr),
                cs=int(t["cs"]) if t.get("cs") is not None else None,
                checked=False,
            )
        )
    sv = {by_label[str(k)]: Severity(str(v)) for k, v in data.get("sv", {}).items()}
    initial = frozenset(by_label[str(n)] for n in data["initial"])

    if not initial or not initial <= states:
        raise ValueError("initial states must be a nonempty subset of states")
    mishaps = {s for s in states if brute_force_is_mishap(s)}
    for t in transitions:
        if t.source not in states or t.target not in states:
            raise ValueError(f"transition endpoints outside state set: {t.key()}")
        if t.source in mishaps:
            raise ValueError(
                f"mishap state {labels.get(t.source, t.source.name)!r} must be final"
            )
    if set(sv) != mishaps:
        raise ValueError("severity must be assigned exactly on mishap states")
    return LoadedModel(
        states=frozenset(states),
        labels=labels,
        initial=initial,
        sv=sv,
        transitions=tuple(
            sorted(
                transitions,
                key=lambda t: (
                    labels.get(t.source, t.source.name),
                    t.action.name,
                    labels.get(t.target, t.target.name),
                ),
            )
        ),
    )


# --- construction -----------------------------------------------------------


@dataclass
class BuiltModel:
    """What :func:`brute_force_construct` derives, by canonical state name."""

    states: set[str]
    initial: set[str]
    transitions: dict[tuple[str, str, str], tuple]  # key -> (pr, cs)
    sv: dict[str, Severity]
    log: list[tuple]  # per sweep: the counts of a SweepRecord


def _mitigation_edge(source: Phase, target: Phase) -> bool:
    """The phase graph's mitigation edges: active to any mitigated phase or
    to inactive, and a mitigated phase to inactive or another mitigated
    phase."""
    if source.kind is PhaseKind.ACTIVE:
        return target.kind in (PhaseKind.MITIGATED, PhaseKind.INACTIVE)
    if source.kind is PhaseKind.MITIGATED:
        return target.kind is PhaseKind.INACTIVE or (
            target.kind is PhaseKind.MITIGATED and target.index != source.index
        )
    return False


def _fire(kind: str, rule, phases: dict[str, Phase]):
    """One rule on one state: ``(target phases, pr, cs, sv)`` or None."""
    if not all(phases[h] in allowed for h, allowed in rule.guard.constraints):
        return None
    if kind == "endangerment":
        if not all(phases[h] in rule.from_phases for h in rule.activates):
            return None
        target = dict(phases)
        if not rule.absorbed:
            target.update((h, Phase.active()) for h in rule.activates)
        return target, rule.pr, None, None
    if kind == "mishap":
        if not all(phases[h] == Phase.active() for h in (*rule.requires, *rule.sets)):
            return None
        target = dict(phases)
        target.update((h, Phase.mishap()) for h in rule.sets)
        return target, rule.pr, None, rule.sv
    target = dict(phases)
    for h, goal in rule.mitigates:
        if phases[h] == goal:
            continue
        if not _mitigation_edge(phases[h], goal):
            return None
        target[h] = goal
    if target == phases:
        return None  # nothing moved
    return target, rule.pr, rule.cs, None


def brute_force_construct(catalog: Catalog) -> BuiltModel:
    """The construction written out from the documented rule semantics.

    Sweeps alternate endangerment and mitigation until every non-mishap
    state went through both.  A sweep takes the non-mishap states it has not
    taken before, in name order, and tries every enabled rule whose hazard
    subset fits ``max_subset_size`` on each: subsets by size, then by the
    declaration positions of their hazards; within a subset, endangerments
    before mishaps, each in declaration order.  The first rule to yield a
    (source, action, target) key sets its weights, and the first mishap
    rule to reach a state sets its severity.
    """
    hazards = catalog.hazards
    ids = [h.id for h in hazards]
    position = {h: i for i, h in enumerate(ids)}

    def name(phases: dict[str, Phase]) -> str:
        return ",".join(f"{h}:{phases[h].render()}" for h in ids)

    def mishap(phases: dict[str, Phase]) -> bool:
        return any(p.kind is PhaseKind.MISHAP for p in phases.values())

    def ordered(entries):
        """(kind, rule) pairs in precedence order, the subset cap applied."""
        keyed = []
        for rank, (kind, index, rule, touched) in enumerate(entries):
            subset = tuple(sorted({position[h] for h in touched}))
            if len(subset) <= catalog.options.max_subset_size:
                keyed.append(((len(subset), subset, rank), kind, rule))
        return [(kind, rule) for _, kind, rule in sorted(keyed, key=lambda e: e[0])]

    # ranks: endangerments, then mishaps, then mitigations, each in
    # declaration order
    endangerment_like = [
        ("endangerment", i, r, r.activates)
        for i, r in enumerate(catalog.endangerments)
        if r.enabled
    ] + [("mishap", i, r, r.sets) for i, r in enumerate(catalog.mishaps) if r.enabled]
    mitigation = [
        ("mitigation", i, r, [h for h, _ in r.mitigates])
        for i, r in enumerate(catalog.mitigations)
        if r.enabled
    ]
    schedule = (
        ("endangerment", ordered(endangerment_like)),
        ("mitigation", ordered(mitigation)),
    )

    if catalog.situation.initial:
        starts = [brute_force_parse_state(n, hazards) for n in catalog.situation.initial]
    else:
        starts = [all_inactive(hazards)]
    states = {s.name: dict(s.entries) for s in starts}
    initial = set(states)
    transitions: dict[tuple[str, str, str], tuple] = {}
    sv: dict[str, Severity] = {}
    log: list[tuple] = []
    done: dict[str, set[str]] = {"endangerment": set(), "mitigation": set()}

    def uncovered() -> bool:
        return any(
            not mishap(ph) and any(n not in d for d in done.values())
            for n, ph in states.items()
        )

    increment = 0
    while ids and uncovered():
        increment += 1
        for sweep, rules in schedule:
            todo = sorted(
                n for n, ph in states.items() if n not in done[sweep] and not mishap(ph)
            )
            states_before, transitions_before = len(states), len(transitions)
            for source in todo:
                for kind, rule in rules:
                    fired = _fire(kind, rule, states[source])
                    if fired is None:
                        continue
                    phases, pr, cs, severity = fired
                    target = name(phases)
                    states.setdefault(target, phases)
                    transitions.setdefault((source, rule.name, target), (pr, cs))
                    if severity is not None:
                        sv.setdefault(target, severity)
            done[sweep].update(todo)
            log.append(
                (
                    increment,
                    sweep,
                    len(states) - states_before,
                    len(transitions) - transitions_before,
                    len(states),
                    sum(not mishap(ph) for ph in states.values()),
                    len(transitions),
                )
            )
    return BuiltModel(set(states), initial, transitions, sv, log)


def assert_matches_oracle(catalog: Catalog) -> None:
    """``construct_rs(catalog)`` builds what :func:`brute_force_construct` builds."""
    model, log = construct_rs(catalog)
    expected = brute_force_construct(catalog)
    assert {s.name for s in model.states} == expected.states
    assert {s.name for s in model.initial} == expected.initial
    assert {t.key(): (t.pr, t.cs) for t in model.transitions} == expected.transitions
    assert {s.name: v for s, v in model.sv.items()} == expected.sv
    assert [
        (
            r.increment,
            r.sweep,
            r.states_added,
            r.transitions_added,
            r.states_total,
            r.non_mishap_total,
            r.transitions_total,
        )
        for r in log.records
    ] == expected.log


def random_rule_catalog(rng: Random) -> Catalog:
    """A random small catalog exercising every construction rule feature.

    Unlike :func:`random_catalog` it makes no promise about the order: it
    draws absorbed endangerments, ``from_phases`` with active or mitigated
    phases, guards on the moved hazards, joint mitigations that mix
    already-at-target, legal and illegal moves (``m1 -> m2`` among them),
    disabled rules, mishaps whose ``requires`` exceeds ``sets``, two mishap
    rules of different severity into one state, rules sharing a name with
    different weights, ``max_subset_size`` from 1 to 3 and several initial
    states.
    """
    while True:
        n_h = rng.randint(1, 4)
        ns = [rng.randint(1, 3) for _ in range(n_h)]
        size = 1
        for n in ns:
            size *= n + 3
        if size <= 400:
            break
    hazards = tuple(HazardPhaseModel(HazardId(f"H{i}"), n) for i, n in enumerate(ns))
    ids = [h.id for h in hazards]
    by_id = {h.id: h for h in hazards}
    counter = itertools.count(1)

    def pr() -> float:
        return round(rng.uniform(0.01, 0.99), 3)

    def subset(low: int = 1, high: int = 3) -> tuple[str, ...]:
        k = rng.randint(low, min(high, n_h))
        return tuple(sorted(rng.sample(ids, k)))

    def mitigated(h: str) -> Phase:
        return Phase.mitigated(rng.randint(1, by_id[h].n_mitigations))

    def guard(over) -> PhaseGuard:
        constraints = {}
        for h in over:
            if rng.random() < 0.3:
                pool = list(by_id[h].phases())
                constraints[h] = tuple(rng.sample(pool, rng.randint(1, len(pool))))
        return PhaseGuard.of(constraints)

    def enabled() -> bool:
        return rng.random() < 0.85

    endangerments: list[EndangermentRule] = []
    for _ in range(rng.randint(1, n_h + 2)):
        activates = subset(high=2)
        from_phases = [Phase.inactive()]
        if rng.random() < 0.3:
            from_phases.append(Phase.active())
        if rng.random() < 0.3:  # a phase every activated hazard has
            low = min(activates, key=lambda h: by_id[h].n_mitigations)
            from_phases.append(mitigated(low))
        rng.shuffle(from_phases)
        rule = EndangermentRule(
            name=f"e{next(counter)}",
            activates=activates,
            pr=pr(),
            guard=guard(ids),  # may constrain the activated hazards too
            from_phases=tuple(from_phases),
            enabled=enabled(),
            absorbed=rng.random() < 0.15,
        )
        endangerments.append(rule)
        if rng.random() < 0.2:  # same name and effect, other guard and pr
            endangerments.append(
                EndangermentRule(
                    name=rule.name,
                    activates=rule.activates,
                    pr=pr(),
                    guard=guard(ids),
                    from_phases=(Phase.inactive(), Phase.active()),
                )
            )

    mishaps: list[MishapRule] = []
    for _ in range(rng.randint(0, 2)):
        sets = subset(high=2)
        requires = sets
        if rng.random() < 0.4:
            requires = tuple(sorted({*sets, rng.choice(ids)}))
        severity = rng.choice((Severity.MARGINAL, Severity.CRITICAL, Severity.FATAL))
        mishaps.append(
            MishapRule(
                name=f"x{next(counter)}",
                requires=requires,
                sets=sets,
                pr=pr(),
                sv=severity,
                guard=guard([h for h in ids if h not in sets]),
                enabled=enabled(),
            )
        )
        if rng.random() < 0.4:  # a second rule into the same mishap state
            others = [v for v in Severity if v is not severity]
            mishaps.append(
                MishapRule(
                    name=f"x{next(counter)}",
                    requires=sets,
                    sets=sets,
                    pr=pr(),
                    sv=rng.choice(others),
                )
            )

    mitigations: list[MitigationRule] = []
    for _ in range(rng.randint(1, 2 * n_h + 1)):
        moved = subset(high=2)
        goals = tuple(
            (h, Phase.inactive() if rng.random() < 0.3 else mitigated(h)) for h in moved
        )
        rule = MitigationRule(
            name=f"m{next(counter)}",
            mitigates=goals,
            pr=pr(),
            cs=rng.randint(0, 20),
            guard=guard(ids),  # may constrain the moved hazards too
            enabled=enabled(),
        )
        mitigations.append(rule)
        if rng.random() < 0.2:  # same name and effect, other guard and weights
            mitigations.append(
                MitigationRule(
                    name=rule.name,
                    mitigates=rule.mitigates,
                    pr=pr(),
                    cs=rng.randint(0, 20),
                )
            )
    for h in ids:  # m1 -> m2 steps, where the hazard has two mitigated phases
        if by_id[h].n_mitigations >= 2 and rng.random() < 0.5:
            mitigations.append(
                MitigationRule(
                    name=f"m{next(counter)}",
                    mitigates=((h, Phase.mitigated(2)),),
                    pr=pr(),
                    cs=rng.randint(0, 20),
                    guard=PhaseGuard.of({h: (Phase.mitigated(1),)}),
                )
            )

    initial = None
    if rng.random() < 0.5:
        space = [
            s for s in enumerate_tuple_space(hazards) if not is_mishap(s)
        ]
        initial = tuple(s.name for s in rng.sample(space, rng.randint(1, 3)))
    return Catalog(
        hazards=hazards,
        endangerments=tuple(endangerments),
        mishaps=tuple(mishaps),
        mitigations=tuple(mitigations),
        situation=OperationalSituation(initial=initial),
        options=ModelOptions(max_subset_size=rng.randint(1, 3)),
    )


def catalog_to_dict(catalog: Catalog) -> dict:
    """The JSON value of a catalog file that reads as ``catalog``.  Features
    and hazard descriptions are not written: the random catalogs have none."""
    assert catalog.features is None
    assert not any(h.hazard.description for h in catalog.hazards)

    def rule(r, **fields) -> dict:
        return {
            "name": r.name,
            **fields,
            "pr": r.pr,
            "guard": {h: [p.render() for p in ps] for h, ps in r.guard.constraints},
            "domains": list(r.domains),
            "description": r.description,
            "enabled": r.enabled,
        }

    return {
        "hazards": [
            {"id": h.id, "description": "", "n_mitigations": h.n_mitigations}
            for h in catalog.hazards
        ],
        "endangerments": [
            rule(
                r,
                activates=list(r.activates),
                from_phases=[p.render() for p in r.from_phases],
                absorbed=r.absorbed,
            )
            for r in catalog.endangerments
        ],
        "mishaps": [
            rule(r, requires=list(r.requires), sets=list(r.sets), sv=r.sv.value)
            for r in catalog.mishaps
        ],
        "mitigations": [
            rule(r, mitigates={h: p.render() for h, p in r.mitigates}, cs=r.cs)
            for r in catalog.mitigations
        ],
        "situation": {
            "name": catalog.situation.name,
            "initial": None
            if catalog.situation.initial is None
            else list(catalog.situation.initial),
            "invariant_predicates": list(catalog.situation.invariant_predicates),
            "notes": catalog.situation.notes,
        },
        "options": _options_value(catalog.options),
    }
