"""Catalog-driven incremental construction of risk structures.

The engine alternates endangerment and mitigation sweeps.  Each sweep walks
the non-mishap states stored since the last sweep of its kind, in canonical
order, and tries on each of them every enabled rule that moves at most
``max_subset_size`` hazards: by the number of hazards it moves, then by
their declaration positions, then in declaration order.  A rule fires when
its guard holds and every move is legal in the phase model; when two rules
yield the same (source, action, target) transition, the first one wins.
Construction stops after an increment that stores no non-mishap state, so
there is at most one increment per stored non-mishap state, plus one.
Every state but an initial one enters as the target of a transition from a
state already built, so the result is reachable from the initial region by
construction.

Rules act on canonical state names.  Each enabled rule is compiled once per
construction into, per hazard it constrains, the set of ``id:phase`` tokens
it accepts (its guard intersected with ``from_phases``, with the active
phase, or with the phases at or one legal step from the mitigation target)
and the tokens it writes.  Applying it to a state tests a few tokens of the
split name and joins the moved ones into the target's name; a new target is
made from a table of the tokens a built state can hold (the
:func:`~riskstruct.core.phase_tokens` of the hazards, the phases of the
initial states and the rules' targets), a known one is looked up by name.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterable, Mapping, NamedTuple, Optional, Sequence

from .core import (
    MISHAP_MARK,
    Action,
    ActionClass,
    HazardPhaseModel,
    ModelOptions,
    OperationalSituation,
    Phase,
    RiskModelError,
    RiskState,
    RiskStructure,
    Severity,
    Transition,
    all_inactive,
    feature_defects,
    is_mishap,
    legal_phase_step,
    parse_state,
    phase_tokens,
)
from .order import FeatureModel


class CatalogInvalid(RiskModelError):
    """The catalog violates its declaration contract; carries all messages."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class PhaseGuard:
    """Conjunction of per-hazard phase constraints: phase must be in the set."""

    constraints: tuple[tuple[str, tuple[Phase, ...]], ...] = ()

    @classmethod
    def of(cls, mapping: Mapping[str, Iterable[Phase]]) -> "PhaseGuard":
        return cls(
            tuple(sorted((h, tuple(ps)) for h, ps in mapping.items()))
        )


@dataclass(frozen=True)
class EndangermentRule:
    """Activates a hazard subset; applies where those hazards sit in
    ``from_phases`` and the guard over the other hazards holds.

    ``absorbed`` rules record the endangerment as a self-loop instead of
    moving any phase (the event occurs but is modeled as absorbed).
    """

    kind: ClassVar[ActionClass] = ActionClass.ENDANGERMENT
    name: str
    activates: tuple[str, ...]
    pr: float
    guard: PhaseGuard = PhaseGuard()
    from_phases: tuple[Phase, ...] = (Phase.inactive(),)
    domains: tuple[str, ...] = ()
    description: str = ""
    enabled: bool = True
    absorbed: bool = False

    def effect(self) -> tuple[tuple[str, Phase], ...]:
        return tuple((h, Phase.active()) for h in self.activates)


@dataclass(frozen=True)
class MishapRule:
    """Moves a hazard subset into the mishap phase.

    All hazards in ``requires`` and ``sets`` must be active; the guard adds
    phase constraints on the remaining hazards.
    """

    kind: ClassVar[ActionClass] = ActionClass.MISHAP_ACTION
    name: str
    requires: tuple[str, ...]
    sets: tuple[str, ...]
    pr: float
    sv: Severity
    guard: PhaseGuard = PhaseGuard()
    domains: tuple[str, ...] = ()
    description: str = ""
    enabled: bool = True

    def effect(self) -> tuple[tuple[str, Phase], ...]:
        return tuple((h, Phase.mishap()) for h in self.sets)


@dataclass(frozen=True)
class MitigationRule:
    """Moves hazards to given target phases at a probability and a cost.

    A hazard already at its target counts as untouched; the rule fires only
    when at least one hazard actually moves.
    """

    kind: ClassVar[ActionClass] = ActionClass.MITIGATION
    name: str
    mitigates: tuple[tuple[str, Phase], ...]
    pr: float
    cs: int
    guard: PhaseGuard = PhaseGuard()
    domains: tuple[str, ...] = ()
    description: str = ""
    enabled: bool = True

    def effect(self) -> tuple[tuple[str, Phase], ...]:
        return self.mitigates


Rule = EndangermentRule | MishapRule | MitigationRule


@dataclass(frozen=True)
class Catalog:
    """Declarative hazard catalog: hazards, features, rules, situation, options.

    Making a catalog, by :func:`dataclasses.replace` too, raises
    :class:`CatalogInvalid` with one anchored message per defect.  The check
    keeps what construction reads: ``actions``, the action that labels each
    rule's transitions, in :meth:`rules` order, and ``initial_states``.
    """

    hazards: tuple[HazardPhaseModel, ...]
    endangerments: tuple[EndangermentRule, ...] = ()
    mishaps: tuple[MishapRule, ...] = ()
    mitigations: tuple[MitigationRule, ...] = ()
    features: Optional[FeatureModel] = None
    situation: OperationalSituation = OperationalSituation()
    options: ModelOptions = ModelOptions()
    actions: tuple[Action, ...] = field(init=False, repr=False, compare=False)
    initial_states: frozenset[RiskState] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        errors: list[str] = []
        ids = [h.id for h in self.hazards]
        for hid in dict.fromkeys(ids):
            if ids.count(hid) > 1:
                errors.append(f"hazards: duplicate id {hid!r}")
        models = {h.id: h for h in self.hazards}

        def check(anchor: str, hid: str, phases: Iterable[Phase] = ()) -> None:
            model = models.get(hid)
            if model is None:
                errors.append(f"{anchor}: undeclared hazard {hid!r}")
                return
            for p in phases:
                if not model.valid_phase(p):
                    errors.append(f"{anchor}: hazard {hid!r} has no phase {p.render()!r}")

        actions: dict[str, Action] = {}
        for anchor, rule in self.rules():
            effect = rule.effect()
            if not effect:
                errors.append(f"{anchor}: moves no hazard")
            for hid, target in effect:
                check(anchor, hid, (target,))
                if isinstance(rule, EndangermentRule) and hid in models:
                    check(f"{anchor}.from_phases", hid, rule.from_phases)
            for hid in rule.requires if isinstance(rule, MishapRule) else ():
                check(anchor, hid)
            for hid, phases in rule.guard.constraints:
                check(f"{anchor}.guard", hid, phases)
            if not 0.0 <= rule.pr <= 1.0:
                errors.append(f"{anchor}: pr {rule.pr} outside [0,1]")
            if isinstance(rule, MitigationRule) and type(rule.cs) is not int:
                errors.append(f"{anchor}: cs must be an integer, got {type(rule.cs).__name__}")
            elif isinstance(rule, MitigationRule) and rule.cs < 0:
                errors.append(f"{anchor}: cs {rule.cs} negative")
            try:
                action = Action(rule.name, rule.kind, rule.effect(), rule.domains)
            except ValueError as exc:
                errors.append(f"{anchor}: {exc}")
                continue
            # one action name, one meaning
            if actions.setdefault(action.name, action) != action:
                errors.append(
                    f"{anchor}: action {action.name!r} declared twice with "
                    "different class, effect, or domains"
                )

        initial = []
        for name in self.situation.initial or ():
            try:
                state = parse_state(name, self.hazards)
            except RiskModelError as exc:
                errors.append(f"situation.initial: {exc}")
                continue
            if is_mishap(state):
                errors.append(f"situation.initial: {name!r} is a mishap state")
            initial.append(state)
        errors.extend(feature_defects(self.hazards, self.features, self.options))
        if errors:
            raise CatalogInvalid(errors)
        # one action per rule: a name has one action
        object.__setattr__(self, "actions", tuple(actions[r.name] for _, r in self.rules()))
        object.__setattr__(
            self, "initial_states", frozenset(initial or [all_inactive(self.hazards)])
        )

    def rules(self) -> Iterable[tuple[str, Rule]]:
        """Every rule, enabled or not, with its anchor in the catalog file:
        endangerments, then mishaps, then mitigations, each in declaration
        order."""
        for section in ("endangerments", "mishaps", "mitigations"):
            for i, rule in enumerate(getattr(self, section)):
                yield f"{section}[{i}] ({rule.name!r})", rule


@dataclass(frozen=True)
class SweepRecord:
    """What one sweep added."""

    increment: int
    sweep: str  # one of SWEEPS
    states_added: int
    transitions_added: int
    states_total: int
    non_mishap_total: int
    transitions_total: int


@dataclass(frozen=True)
class ConstructionLog:
    records: tuple[SweepRecord, ...] = ()


SWEEPS = ("endangerment", "mitigation")

#: The kind of sweep that tries a rule, by its action's class.
_SWEEP = {
    ActionClass.ENDANGERMENT: "endangerment",
    ActionClass.MISHAP_ACTION: "endangerment",
    ActionClass.MITIGATION: "mitigation",
}


class _Rule(NamedTuple):
    """One enabled rule, compiled to act on canonical state names.

    A state fires the rule when, for each ``(position, accepted)`` of
    ``checks``, its name's token at that position is in ``accepted``: the
    rule's guard intersected with what the rule itself needs of the hazard
    (a phase of ``from_phases``, being active, or sitting at the mitigation
    target or one legal step from it).  The target's name swaps in the token
    of each ``(position, token)`` of ``moves``.  A mitigation fires only if
    that changes the name (``must_move``).
    """

    checks: tuple[tuple[int, frozenset[str]], ...]
    moves: tuple[tuple[int, str], ...]
    action: Action
    pr: float
    cs: Optional[int]
    sv: Optional[Severity]
    must_move: bool


class _Builder:
    """Mutable construction state, frozen into a RiskStructure at the end.

    ``states`` defaults to the catalog's initial states; each must range
    over the catalog's hazards in declaration order.
    """

    def __init__(
        self, catalog: Catalog, states: Optional[Iterable[RiskState]] = None
    ):
        self.catalog = catalog
        self.ids = tuple(h.id for h in catalog.hazards)
        # Each stored state under its canonical name; transitions share the
        # stored objects instead of keeping equal copies of them.
        self.states: dict[str, RiskState] = {}
        for s in catalog.initial_states if states is None else states:
            if s.hazard_ids != self.ids:
                raise RiskModelError(
                    f"state {s.name!r} does not range over the catalog's "
                    f"hazards {', '.join(self.ids)} in declaration order"
                )
            self.states[s.name] = s
        # each transition's key, mapped to the first rule that declares it
        self.transitions: dict[tuple[str, str, str], _Rule] = {}
        self.sv: dict[str, Severity] = {}  # by state name
        # The enabled rules that move at most max_subset_size hazards, by the
        # number and then the declaration positions of the hazards they move,
        # ties in Catalog.rules order: the first declaring rule of a
        # transition wins, so this order is part of the output.
        position = {h: i for i, h in enumerate(self.ids)}
        enabled = sorted(
            (
                (rule, action, sorted(position[h] for h, _ in action.effect))
                for (_, rule), action in zip(catalog.rules(), catalog.actions)
                if rule.enabled and len(action.effect) <= catalog.options.max_subset_size
            ),
            key=lambda entry: (len(entry[2]), entry[2]),
        )
        # token -> (id, phase), for every phase a built state can hold: the
        # phases of the states it starts from and the targets of the rules
        self.entries = phase_tokens(catalog.hazards)
        for h, p in itertools.chain(
            (entry for s in self.states.values() for entry in s.entries),
            (entry for _, action, _ in enabled for entry in action.effect),
        ):
            self.entries[f"{h}:{p.render()}"] = (h, p)
        # per kind of sweep, the compiled rules to try on a state, in order
        self.rules: dict[str, list[_Rule]] = {kind: [] for kind in SWEEPS}
        for rule, action, _ in enabled:
            self.rules[_SWEEP[action.kind]].append(self._compile(rule, action))

    def _compile(self, rule: Rule, action: Action) -> _Rule:
        accepted: dict[str, set[str]] = {}

        def require(h: str, phase_ok: Callable[[Phase], bool]) -> None:
            ok = {t for t, (hid, p) in self.entries.items() if hid == h and phase_ok(p)}
            accepted[h] = accepted[h] & ok if h in accepted else ok

        for h, phases in rule.guard.constraints:
            require(h, phases.__contains__)
        moves = action.effect
        cs = sv = None
        if isinstance(rule, EndangermentRule):
            for h in rule.activates:
                require(h, rule.from_phases.__contains__)
            if rule.absorbed:
                moves = ()
        elif isinstance(rule, MishapRule):
            for h in (*rule.requires, *rule.sets):
                require(h, Phase.active().__eq__)
            sv = rule.sv
        else:
            cs = rule.cs
        # Each move is checked against the phase graph here, once per rule:
        # a hazard is accepted only at its target or one legal step from it,
        # so every edge the rule makes is legal and is built without a
        # per-edge check.
        for h, goal in moves:
            require(
                h,
                lambda p, goal=goal: p == goal or legal_phase_step(p, action.kind, goal),
            )
        position = self.ids.index
        return _Rule(
            checks=tuple(
                sorted((position(h), frozenset(ok)) for h, ok in accepted.items())
            ),
            moves=tuple((position(h), f"{h}:{p.render()}") for h, p in moves),
            action=action,
            pr=rule.pr,
            cs=cs,
            sv=sv,
            must_move=action.kind is ActionClass.MITIGATION,
        )

    def run(self) -> tuple[RiskStructure, ConstructionLog]:
        stored, transitions = self.states, self.transitions
        # States are stored in order, so the states a kind of sweep has
        # already taken are, mishap states aside, the first swept[kind] stored.
        swept = dict.fromkeys(SWEEPS, 0)
        records: list[SweepRecord] = []
        increment = 0
        # without hazards there is nothing to process
        while self.ids and any(
            MISHAP_MARK not in name
            for name in itertools.islice(stored, swept["endangerment"], None)
        ):
            increment += 1
            for kind in SWEEPS:
                states_before, transitions_before = len(stored), len(transitions)
                names = sorted(
                    name
                    for name in itertools.islice(stored, swept[kind], None)
                    if MISHAP_MARK not in name
                )
                swept[kind] = states_before
                self._apply(kind, list(map(stored.__getitem__, names)))
                records.append(
                    SweepRecord(
                        increment=increment,
                        sweep=kind,
                        states_added=len(stored) - states_before,
                        transitions_added=len(transitions) - transitions_before,
                        states_total=len(stored),
                        non_mishap_total=sum(MISHAP_MARK not in name for name in stored),
                        transitions_total=len(transitions),
                    )
                )
        return self._freeze(), ConstructionLog(tuple(records))

    def _apply(self, kind: str, states: Sequence[RiskState]) -> None:
        """Try every rule of one kind of sweep on each state, in order."""
        stored, transitions, severities = self.states, self.transitions, self.sv
        for source in states:
            name = source.name
            tokens = name.split(",")
            for rule in self.rules[kind]:
                checks, moves, action, pr, cs, sv, must_move = rule
                for i, accepted in checks:
                    if tokens[i] not in accepted:
                        break
                else:  # every check passed: the rule fires
                    moved = tokens.copy()
                    for i, token in moves:
                        moved[i] = token
                    target_name = ",".join(moved)
                    if must_move and target_name == name:
                        continue
                    target = stored.get(target_name)
                    if target is None:
                        entries = tuple(map(self.entries.__getitem__, moved))
                        target = RiskState._parsed(entries, target_name, self.ids)
                        stored[target_name] = target
                    key = (name, action.name, target_name)
                    if key not in transitions:  # first declaring rule wins
                        transitions[key] = rule
                    if sv is not None and target_name not in severities:
                        severities[target_name] = sv

    def _freeze(self) -> RiskStructure:
        # every edge is made here, from its key and its rule's action and
        # weights; a compiled rule's moves are legal, so the edges are made
        # without the phase-graph check
        state, rules = self.states.__getitem__, self.transitions

        def edge(key: tuple[str, str, str]) -> Transition:
            rule = rules[key]
            return Transition(
                state(key[0]), rule.action, state(key[2]), rule.pr, rule.cs, checked=False
            )

        return RiskStructure(
            hazards=self.catalog.hazards,
            states=frozenset(self.states.values()),
            transitions=tuple(map(edge, rules)),
            initial=self.catalog.initial_states,
            sv={state(name): severity for name, severity in self.sv.items()},
            situation=self.catalog.situation,
            features=self.catalog.features,
            options=self.catalog.options,
        )


def construct_rs(catalog: Catalog) -> tuple[RiskStructure, ConstructionLog]:
    """Build the complete risk structure the catalog describes.

    Completeness is relative to the catalog: re-running any sweep on the
    result adds nothing (see :func:`verify_complete`).
    """
    return _Builder(catalog).run()


def verify_complete(model: RiskStructure, catalog: Catalog) -> bool:
    """Check that the model is a fixed point of the construction rules.

    Re-derives every rule application on every non-mishap state and
    confirms each resulting transition is already present.
    """
    builder = _Builder(catalog, model.states)
    states = sorted((s for s in model.states if not is_mishap(s)), key=lambda s: s.name)
    for kind in SWEEPS:
        builder._apply(kind, states)
    existing = {t.key() for t in model.transitions}
    return set(builder.transitions) <= existing and builder.states.keys() == {
        s.name for s in model.states
    }
