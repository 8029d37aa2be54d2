"""Core domain types: hazards, phases, risk states, actions, transitions.

A risk structure is a weighted labeled transition system whose states assign
one phase to every declared hazard.  Everything in this module is an immutable
value; mutation happens only inside the construction engine, which freezes its
result into a :class:`RiskStructure`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import compress, islice
from operator import attrgetter, eq, itemgetter, lt
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Optional, Sequence

DOMAINS = ("drv", "veh", "renv")

_RESERVED_ID_CHARS = set(":,|")


class RiskModelError(Exception):
    """Base class for all errors raised by this package."""


class IllegalPhaseTransition(RiskModelError):
    """An action tried to move a hazard along an edge the phase model forbids."""


class UnknownState(RiskModelError):
    """A state was referenced that is not part of the structure."""


class StateSyntaxError(RiskModelError):
    """A state name does not follow the ``id:phase,id:phase`` grammar."""


class PhaseKind(Enum):
    INACTIVE = "inactive"
    ACTIVE = "active"
    MISHAP = "mishap"
    MITIGATED = "mitigated"


@dataclass(frozen=True)
class Phase:
    """Per-hazard status: inactive, active, mishap-contributing, or mitigated.

    Mitigated phases carry a positive index selecting one of the hazard's
    ``n_mitigations`` mitigation phases; the index is an opaque catalog choice.
    """

    kind: PhaseKind
    index: int = 0

    def __post_init__(self) -> None:
        if self.kind is PhaseKind.MITIGATED:
            if self.index < 1:
                raise ValueError("mitigated phase needs a positive index")
        elif self.index != 0:
            raise ValueError(f"{self.kind.value} phase carries no index")

    @classmethod
    def inactive(cls) -> "Phase":
        return _INACTIVE

    @classmethod
    def active(cls) -> "Phase":
        return _ACTIVE

    @classmethod
    def mishap(cls) -> "Phase":
        return _MISHAP

    @classmethod
    def mitigated(cls, index: int) -> "Phase":
        return cls(PhaseKind.MITIGATED, index)

    def render(self) -> str:
        if self.kind is PhaseKind.INACTIVE:
            return "0"
        if self.kind is PhaseKind.ACTIVE:
            return "e"
        if self.kind is PhaseKind.MISHAP:
            return "em"
        return f"m{self.index}"

    @classmethod
    def parse(cls, text: str) -> "Phase":
        fixed = _FIXED_PHASES.get(text)
        if fixed is not None:
            return fixed
        m = re.fullmatch(r"m([1-9][0-9]*)", text)
        if m:
            try:
                return cls.mitigated(int(m.group(1)))
            except ValueError:  # more digits than int() converts
                pass
        raise StateSyntaxError(f"not a phase: {text!r}")

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


# The three index-free phases are shared values: the constructors above and
# Phase.parse hand out these objects instead of building new ones.
_INACTIVE = Phase(PhaseKind.INACTIVE)
_ACTIVE = Phase(PhaseKind.ACTIVE)
_MISHAP = Phase(PhaseKind.MISHAP)
_FIXED_PHASES = {p.render(): p for p in (_INACTIVE, _ACTIVE, _MISHAP)}


class ActionClass(Enum):
    ENDANGERMENT = "endangerment"
    MITIGATION = "mitigation"
    MISHAP_ACTION = "mishap"
    ORDINARY = "ordinary"


class Severity(Enum):
    """Mishap severity scale: marginal < critical < fatal."""

    MARGINAL = "m"
    CRITICAL = "c"
    FATAL = "f"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANKS[self.value]


_SEVERITY_RANKS = {"m": 0, "c": 1, "f": 2}


class Band(Enum):
    """Probability band used to scale severity into a risk priority."""

    LOW = "l"
    MEDIUM = "m"
    HIGH = "h"


@dataclass(frozen=True)
class BandThresholds:
    """Maps a probability to the low/medium/high band.

    Probabilities below ``l_below`` are low, probabilities at or above
    ``h_at_least`` are high, everything between is medium; so band(0) is low
    and band(1) is high.
    """

    l_below: float = 0.01
    h_at_least: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.l_below <= self.h_at_least <= 1.0:
            raise ValueError("band thresholds must satisfy 0 < l <= h <= 1")

    def band(self, probability: float) -> Band:
        if probability < self.l_below:
            return Band.LOW
        if probability >= self.h_at_least:
            return Band.HIGH
        return Band.MEDIUM


def _one_line(text: str) -> bool:
    """Whether ``text`` is one line without a tab, as a field of output is."""
    return text.splitlines() == [text] and "\t" not in text


@dataclass(frozen=True)
class HazardId:
    """Symbolic hazard identifier, unique within a catalog."""

    id: str
    description: str = ""

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("hazard id must be non-empty")
        if any(c.isspace() for c in self.id) or _RESERVED_ID_CHARS & set(self.id):
            raise ValueError(
                f"hazard id {self.id!r} may not contain whitespace or any of ':,|'"
            )


@dataclass(frozen=True)
class HazardPhaseModel:
    """A hazard together with its fixed phase-transition graph.

    The phase set has ``n_mitigations + 3`` elements: inactive, active,
    mishap-contributing, and one mitigated phase per mitigation index.
    """

    hazard: HazardId
    n_mitigations: int

    def __post_init__(self) -> None:
        if self.n_mitigations < 1:
            raise ValueError(f"hazard {self.hazard.id!r}: n_mitigations must be >= 1")

    @property
    def id(self) -> str:
        return self.hazard.id

    def phases(self) -> tuple[Phase, ...]:
        return (
            Phase.inactive(),
            Phase.active(),
            Phase.mishap(),
            *(Phase.mitigated(j) for j in range(1, self.n_mitigations + 1)),
        )

    def valid_phase(self, phase: Phase) -> bool:
        if phase.kind is PhaseKind.MITIGATED:
            return 1 <= phase.index <= self.n_mitigations
        return True


#: The per-hazard phase graph: an action of each class steps from a phase of
#: one of its source kinds to one of its target kinds.  Mishap phases are
#: absorbing, and ordinary actions never move a phase.
_PHASE_STEPS = {
    ActionClass.ENDANGERMENT: (
        {PhaseKind.INACTIVE, PhaseKind.ACTIVE, PhaseKind.MITIGATED},
        {PhaseKind.ACTIVE},
    ),
    ActionClass.MISHAP_ACTION: ({PhaseKind.ACTIVE}, {PhaseKind.MISHAP}),
    ActionClass.MITIGATION: (
        {PhaseKind.ACTIVE, PhaseKind.MITIGATED},
        {PhaseKind.MITIGATED, PhaseKind.INACTIVE},
    ),
    ActionClass.ORDINARY: (set(), set()),
}


def legal_phase_step(source: Phase, action_class: ActionClass, target: Phase) -> bool:
    """Whether the per-hazard phase graph has an edge (source, class, target):
    a step of ``_PHASE_STEPS`` that, from a mitigated phase to a mitigated
    phase, changes the index."""
    sources, targets = _PHASE_STEPS[action_class]
    return source.kind in sources and target.kind in targets and (
        source.kind is not PhaseKind.MITIGATED or source != target
    )


@dataclass(frozen=True, slots=True)
class RiskState:
    """One phase per hazard, ordered by catalog declaration order.

    The canonical textual form is ``id:phase`` pairs joined by commas in
    declaration order, e.g. ``A:m1,L:e,R:0``; it round-trips through
    :func:`parse_state`.  The name is computed once and is the state's
    identity: two states are equal, and hash alike, exactly when their names
    are equal.  That is the same as equal entries, because hazard ids contain
    none of ``:,|`` and each phase renders to its own text.  Code that
    handles many states at once keys its sets and maps by name: a name's
    hash is cached, a state's is a Python call.
    """

    entries: tuple[tuple[str, Phase], ...]
    name: str = field(init=False, repr=False)
    hazard_ids: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        entries = self.entries
        object.__setattr__(
            self, "name", ",".join(f"{h}:{p.render()}" for h, p in entries)
        )
        object.__setattr__(self, "hazard_ids", tuple(h for h, _ in entries))

    @classmethod
    def _parsed(
        cls, entries: tuple[tuple[str, Phase], ...], name: str, hazard_ids: tuple[str, ...]
    ) -> "RiskState":
        """``RiskState(entries)``, for a caller that has read ``entries`` from
        their canonical ``name`` and checked their ``hazard_ids``."""
        state = object.__new__(cls)
        object.__setattr__(state, "entries", entries)
        object.__setattr__(state, "name", name)
        object.__setattr__(state, "hazard_ids", hazard_ids)
        return state

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not RiskState:
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        # str caches its own hash; an integer stored here would not survive
        # a pickle into a process with another PYTHONHASHSEED
        return hash(self.name)

    def phase(self, hazard_id: str) -> Phase:
        for h, p in self.entries:
            if h == hazard_id:
                return p
        raise KeyError(hazard_id)

    def phases(self) -> Mapping[str, Phase]:
        return dict(self.entries)

    def with_phases(self, updates: Mapping[str, Phase]) -> "RiskState":
        unknown = set(updates).difference(self.hazard_ids)
        if unknown:
            raise KeyError(f"unknown hazards: {sorted(unknown)}")
        return RiskState(
            tuple((h, updates.get(h, p)) for h, p in self.entries)
        )

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.name


def state_from_phases(
    hazards: Sequence[HazardPhaseModel], phases: Mapping[str, Phase]
) -> RiskState:
    """Build a state in declaration order; every hazard must get a phase."""
    missing = [h.id for h in hazards if h.id not in phases]
    if missing:
        raise StateSyntaxError(f"no phase given for hazards: {missing}")
    extra = set(phases) - {h.id for h in hazards}
    if extra:
        raise StateSyntaxError(f"phases for undeclared hazards: {sorted(extra)}")
    for h in hazards:
        if not h.valid_phase(phases[h.id]):
            raise StateSyntaxError(
                f"hazard {h.id!r} has no phase {phases[h.id].render()!r}"
            )
    return RiskState(tuple((h.id, phases[h.id]) for h in hazards))


def all_inactive(hazards: Sequence[HazardPhaseModel]) -> RiskState:
    return RiskState(tuple((h.id, Phase.inactive()) for h in hazards))


def phase_tokens(
    hazards: Sequence[HazardPhaseModel],
) -> dict[str, tuple[str, Phase]]:
    """The ``id:phase`` token of each index-free phase of ``hazards``, mapped
    to its entry.

    A canonical state name is one token per hazard, in declaration order,
    joined by commas.  A hazard has ``n_mitigations`` mitigated phases,
    however many of them are in use, so a caller adds the tokens of the
    mitigated phases it meets.
    """
    return {f"{h.id}:{text}": (h.id, p) for h in hazards for text, p in _FIXED_PHASES.items()}


def state_parser(hazards: Sequence[HazardPhaseModel]) -> Callable[[str], RiskState]:
    """A function parsing state names over ``hazards``, as :func:`parse_state`.

    A :func:`phase_tokens` table per hazard is built once, so a canonical
    name is read by one lookup per token, in the table of the token's
    position, which also checks the declaration order.  Any other text
    takes the token-by-token checks and gets their messages; the tokens of
    the state it names are then added to the tables, so a mitigated phase
    takes those checks once.
    """
    hazards = tuple(hazards)
    ids = tuple(h.id for h in hazards)
    tables = [phase_tokens((h,)) for h in hazards]

    def parse(text: str) -> RiskState:
        tokens = text.split(",")
        if len(tokens) == len(tables):
            entries = tuple(map(dict.get, tables, tokens))
            if None not in entries:
                return RiskState._parsed(entries, text, ids)
        state = _parse_state_checked(text, hazards)
        for table, token, entry in zip(tables, state.name.split(","), state.entries):
            table[token] = entry
        return state

    return parse


def parse_state(text: str, hazards: Sequence[HazardPhaseModel]) -> RiskState:
    """Parse a state name; accepts any pair order but normalizes to canonical."""
    return state_parser(hazards)(text)


def _parse_state_checked(
    text: str, hazards: Sequence[HazardPhaseModel]
) -> RiskState:
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


def embed_state(state: RiskState, hazards: Sequence[HazardPhaseModel]) -> RiskState:
    """Extend a state to a superset hazard list, filling inactive phases."""
    if state.hazard_ids == tuple(h.id for h in hazards):
        return state
    known = state.phases()
    missing = set(known) - {h.id for h in hazards}
    if missing:
        raise StateSyntaxError(f"state hazards {sorted(missing)} not in target set")
    return RiskState(
        tuple((h.id, known.get(h.id, Phase.inactive())) for h in hazards)
    )


# The two predicates below read a state's canonical name.  A ``:`` only ever
# separates an id from its phase and a ``,`` ends a phase, since ids contain
# neither; ``em`` is the only phase text that starts with ``em``, and ``e``
# the only one that is ``e`` alone.

#: The text that a canonical state name holds exactly when the state is a
#: mishap state (see :func:`is_mishap`).
MISHAP_MARK = ":em"


def is_mishap(state: RiskState) -> bool:
    """True iff some hazard is in its mishap phase: ``:em`` occurs in the
    name exactly then."""
    return MISHAP_MARK in state.name


def has_active(state: RiskState) -> bool:
    """True iff some hazard is in its active phase: ``:e`` then ends the
    name or is followed by ``,``."""
    name = state.name
    return name.endswith(":e") or ":e," in name


def full_state_space_size(hazards: Sequence[HazardPhaseModel]) -> int:
    """Size of the full tuple space: product of per-hazard phase counts."""
    if not hazards:
        raise ValueError("at least one hazard required")
    size = 1
    for h in hazards:
        size *= h.n_mitigations + 3
    return size


@dataclass(frozen=True)
class Action:
    """A transition label with a class, acting domains, and an effect map.

    The effect map lists the hazards this action moves and their target
    phases; hazards outside the map are untouched.
    """

    name: str
    kind: ActionClass
    effect: tuple[tuple[str, Phase], ...] = ()
    domains: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("action name must be non-empty")
        if not _one_line(self.name):
            raise ValueError(f"action name {self.name!r} is not one line without a tab")
        # by hazard id alone: phases have no order, and an id given twice
        # is refused below
        object.__setattr__(self, "effect", tuple(sorted(self.effect, key=itemgetter(0))))
        object.__setattr__(self, "domains", tuple(sorted(set(self.domains))))
        for d in self.domains:
            if d not in DOMAINS:
                raise ValueError(
                    f"action {self.name!r}: unknown domain {d!r}; "
                    f"pick from {', '.join(DOMAINS)}"
                )
        seen: set[str] = set()
        for hid, target in self.effect:
            if hid in seen:
                raise ValueError(f"action {self.name!r} moves hazard {hid!r} twice")
            seen.add(hid)
            if target.kind not in _PHASE_STEPS[self.kind][1]:
                raise ValueError(
                    f"action {self.name!r} ({self.kind.value}) cannot target "
                    f"phase {target.render()!r} of hazard {hid!r}"
                )


def apply_action(state: RiskState, action: Action) -> RiskState:
    """Move exactly the effect-map hazards; all other phases stay put.

    A hazard already at its target phase counts as untouched.  Raises
    :class:`IllegalPhaseTransition` when any move is not in the phase graph.
    """
    updates: dict[str, Phase] = {}
    for hid, target in action.effect:
        try:
            current = state.phase(hid)
        except KeyError:
            raise IllegalPhaseTransition(
                f"action {action.name!r} moves unknown hazard {hid!r}"
            ) from None
        if current == target:
            continue
        if not legal_phase_step(current, action.kind, target):
            raise IllegalPhaseTransition(
                f"action {action.name!r}: hazard {hid!r} cannot move "
                f"{current.render()} -> {target.render()} as {action.kind.value}"
            )
        updates[hid] = target
    return state.with_phases(updates)


@dataclass(frozen=True, slots=True, init=False)
class Transition:
    """A weighted labeled edge of the risk structure.

    Probabilities sit on endangerment, mitigation, and mishap transitions;
    costs on mitigations.  Every edge has one hazard set, ``pr`` in [0,1] and
    ``cs`` an int >= 0.  ``checked=False`` skips the per-hazard phase-graph
    check: edges of a quotient model connect class representatives, whose
    phases stand in for whole equivalence classes, and construction has
    checked each rule's moves once.  ``checked`` is an argument, not a
    field, so a :func:`dataclasses.replace` of any edge is checked again.
    """

    source: RiskState
    action: Action
    target: RiskState
    pr: Optional[float] = None
    cs: Optional[int] = None

    def __init__(
        self,
        source: RiskState,
        action: Action,
        target: RiskState,
        pr: Optional[float] = None,
        cs: Optional[int] = None,
        checked: bool = True,
    ) -> None:
        if source.hazard_ids != target.hazard_ids:
            raise ValueError("transition endpoints disagree on the hazard set")
        if checked:
            for (hid, sp), (_, tp) in zip(source.entries, target.entries):
                if sp is tp or sp == tp:
                    continue
                if not legal_phase_step(sp, action.kind, tp):
                    raise IllegalPhaseTransition(
                        f"transition {source.name} -{action.name}-> "
                        f"{target.name}: hazard {hid!r} moves "
                        f"{sp.render()} -> {tp.render()} illegally"
                    )
        if pr is not None and not 0.0 <= pr <= 1.0:
            raise ValueError(f"pr must be in [0,1], got {pr}")
        if cs is not None and type(cs) is not int:
            raise ValueError(f"cs must be an integer, got {type(cs).__name__}")
        if cs is not None and cs < 0:
            raise ValueError(f"cs must be nonnegative, got {cs}")
        set_source, set_action, set_target, set_pr, set_cs = _EDGE_SLOTS
        set_source(self, source)
        set_action(self, action)
        set_target(self, target)
        set_pr(self, pr)
        set_cs(self, cs)

    def key(self) -> tuple[str, str, str]:
        return (self.source.name, self.action.name, self.target.name)


#: The ``__set__`` of each field's slot of :class:`Transition`, in field
#: order.  They store past the frozen ``__setattr__``, in about two thirds
#: of the time that ``object.__setattr__`` takes; many edges are made at once.
_EDGE_SLOTS = tuple(getattr(Transition, f.name).__set__ for f in fields(Transition))


@dataclass(frozen=True)
class OperationalSituation:
    """Scope metadata for a model: initial states plus opaque invariants.

    The invariant predicates are carried as labels only and never evaluated.
    """

    name: str = ""
    initial: Optional[tuple[str, ...]] = None
    invariant_predicates: tuple[str, ...] = ()
    notes: str = ""


#: The names of the region policies of :func:`riskstruct.analysis.assign_regions`.
REGION_POLICIES = ("no_active", "handover")


def region_policy(name: str) -> str:
    """``name`` if it names a region policy; raises ValueError if not."""
    if name not in REGION_POLICIES:
        choices = ", ".join(REGION_POLICIES)
        raise ValueError(f"unknown region policy {name!r}; pick one of {choices}")
    return name


def feature_defects(
    hazards: Sequence[HazardPhaseModel], features, options: "ModelOptions"
) -> Iterator[str]:
    """One anchored line per defect of ``features`` (a FeatureModel or None)
    in a catalog or model of ``hazards`` and ``options``: an effect or
    priority entry whose hazard or phase ``hazards`` do not declare, and no
    fallback feature for the 'handover' region policy."""
    models = {h.id: h for h in hazards}
    for i, (hid, phase, _) in enumerate(features.effects if features is not None else ()):
        if hid not in models:
            yield f"features.effects[{i}]: undeclared hazard {hid!r}"
        elif not models[hid].valid_phase(phase):
            yield f"features.effects[{i}]: hazard {hid!r} has no phase {phase.render()!r}"
    for i, hid in enumerate(features.priority if features is not None else ()):
        if hid not in models:
            yield f"features.priority[{i}]: undeclared hazard {hid!r}"
    if options.region_policy == "handover" and (
        features is None or not features.fallback_features()
    ):
        yield (
            "options.region_policy: 'handover' needs a feature universe "
            "with at least one fallback feature"
        )


@dataclass(frozen=True)
class ModelOptions:
    """Construction and analysis knobs carried along with a model."""

    max_subset_size: int = 2
    bands: BandThresholds = BandThresholds()
    region_policy: str = "no_active"

    def __post_init__(self) -> None:
        if self.max_subset_size < 1:
            raise ValueError("max_subset_size must be >= 1")
        region_policy(self.region_policy)


@dataclass(frozen=True)
class RiskStructure:
    """A weighted labeled transition system over risk states.

    States whose display label differs from their canonical name (merged
    equivalence classes) carry the label in ``labels``; everything else is
    addressed by canonical name.  A model is a value: its fields are never
    reassigned, and ``sv`` and ``labels`` are read-only, so a changed model
    is a new instance made by :func:`dataclasses.replace`.  It keeps its
    transitions in label order (source label, action name, target label),
    one per key, whatever order they are given in.  Its actions, its states
    in label order and its adjacency and analysis tables are derived from
    its fields, once.
    """

    hazards: tuple[HazardPhaseModel, ...]
    states: frozenset[RiskState]
    transitions: tuple[Transition, ...]
    initial: frozenset[RiskState]
    sv: Mapping[RiskState, Severity] = field(default_factory=dict)
    situation: Optional[OperationalSituation] = None
    features: Optional["FeatureModel"] = None  # noqa: F821 - defined in .order
    options: ModelOptions = field(default_factory=ModelOptions)
    labels: Mapping[RiskState, str] = field(default_factory=dict)
    #: The actions that label the transitions, each once, sorted by name.
    actions: tuple[Action, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # read-only views of copies of their own, so no caller can edit them;
        # a label equal to its state's name is no label
        object.__setattr__(self, "sv", MappingProxyType(dict(self.sv)))
        labels = {s: text for s, text in self.labels.items() if text != s.name}
        object.__setattr__(self, "labels", MappingProxyType(labels))
        ids = tuple(h.id for h in self.hazards)
        if len(set(ids)) != len(ids):
            raise ValueError("hazard ids must be unique")
        for s in self.states:
            if s.hazard_ids != ids:
                raise ValueError(
                    f"state {s.name!r} does not range over the hazards in declaration order"
                )
        # membership by canonical name, which is a state's identity
        names = {s.name for s in self.states}
        # a mitigated phase is one of its hazard's: one pass over the distinct
        # id:phase tokens of the names, less the index-free ones
        tokens = set(",".join(names).split(",")).difference(phase_tokens(self.hazards), ("",))
        for hid, _, phase in sorted(token.partition(":") for token in tokens):
            if int(phase[1:]) > self.hazard(hid).n_mitigations:
                raise ValueError(f"hazard {hid!r} has no phase {phase!r}")
        if not self.initial or not all(s.name in names for s in self.initial):
            raise ValueError("initial states must be a nonempty subset of states")
        # a label, like a name, names one state alone
        texts: set[str] = set()
        for s, text in self.labels.items():
            if s.name not in names:
                raise ValueError(f"label {text!r} is on {s.name!r}, which is not a state")
            if text in names or text in texts:
                raise ValueError(f"label {text!r} already names another state")
            if not _one_line(text):
                raise ValueError(f"label {text!r} is not one line without a tab")
            texts.add(text)
        mishaps = {name for name in names if MISHAP_MARK in name}
        edges = tuple(self.transitions)
        for t in edges:
            source = t.source.name
            if source not in names or t.target.name not in names:
                raise ValueError(f"transition endpoints outside state set: {t.key()}")
            if source in mishaps:
                raise ValueError(
                    f"mishap state {self.label(t.source)!r} must be final"
                )
        # the edges in label order, one per key, so that a model equals every
        # model with the same edges; edges given in that order take one pass
        label = dict(zip(names, names))
        label.update((s.name, text) for s, text in self.labels.items())
        keys = [(label[t.source.name], t.action.name, label[t.target.name]) for t in edges]
        if not all(map(lt, keys, islice(keys, 1, None))):
            order = sorted(range(len(keys)), key=keys.__getitem__)
            edges = tuple(map(edges.__getitem__, order))
            keys = list(map(keys.__getitem__, order))
            for key in compress(keys, map(eq, keys, islice(keys, 1, None))):
                raise ValueError("transition {} -{}-> {} is given twice".format(*key))
        object.__setattr__(self, "transitions", edges)
        if {s.name for s in self.sv} != mishaps:
            raise ValueError("severity must be assigned exactly on mishap states")
        # an action is hashed once per object, not once per edge; sorted by
        # name, two actions of one name stand together
        by_id = {id(t.action): t.action for t in edges}
        actions = tuple(sorted(dict.fromkeys(by_id.values()), key=attrgetter("name")))
        for a, b in zip(actions, actions[1:]):
            if a.name == b.name:
                raise ValueError(f"two actions are named {a.name!r}")
        object.__setattr__(self, "actions", actions)
        for defect in feature_defects(self.hazards, self.features, self.options):
            raise ValueError(defect)

    def __reduce__(self):
        """A copy or pickle is made from the fields alone, through the
        constructor, so it computes its own derived data."""
        values = (getattr(self, f.name) for f in fields(self) if f.init)
        return type(self), tuple(dict(v) if type(v) is MappingProxyType else v for v in values)

    def hazard(self, hazard_id: str) -> HazardPhaseModel:
        for h in self.hazards:
            if h.id == hazard_id:
                return h
        raise KeyError(hazard_id)

    def label(self, state: RiskState) -> str:
        return self.labels.get(state, state.name)

    def sorted_states(self) -> tuple[RiskState, ...]:
        """The states sorted by label, computed once."""
        return self._memo("sorted_states", lambda: tuple(sorted(self.states, key=self.label)))

    def mishap_states(self) -> frozenset[RiskState]:
        return frozenset(s for s in self.states if is_mishap(s))

    def state_named(self, label: str) -> RiskState:
        for s in self.states:
            if self.label(s) == label or s.name == label:
                return s
        raise UnknownState(f"no state named {label!r}")

    def require_state(self, state: RiskState) -> None:
        if state not in self.states:
            raise UnknownState(f"state {state.name!r} is not in the model")

    def outgoing(self) -> Mapping[RiskState, tuple[Transition, ...]]:
        """Transitions leaving each state, in the model's order.

        Built once per instance and shared by every caller, so read-only.
        """
        return self._memo("adjacency", self._adjacency)[0]

    def incoming(self) -> Mapping[RiskState, tuple[Transition, ...]]:
        """Transitions entering each state, in the model's order; built and
        shared with :meth:`outgoing`."""
        return self._memo("adjacency", self._adjacency)[1]

    def _adjacency(self) -> tuple[Mapping, Mapping]:
        # edges are grouped by state name, whose hash is cached, in the
        # model's order, and each state is hashed once, when its group
        # is stored under it
        out: dict[str, list[Transition]] = {s.name: [] for s in self.states}
        inc: dict[str, list[Transition]] = {s.name: [] for s in self.states}
        for t in self.transitions:
            out[t.source.name].append(t)
            inc[t.target.name].append(t)
        return (
            MappingProxyType({s: tuple(out[s.name]) for s in self.states}),
            MappingProxyType({s: tuple(inc[s.name]) for s in self.states}),
        )

    def _memo(self, key, compute):
        """Derived data of this instance, computed by ``compute()`` once per
        ``key``.

        The memo is a plain dict in the instance's ``__dict__``, not a field,
        so ``==``, ``repr``, :func:`dataclasses.replace`, copies, pickles and
        serialization never see it.
        """
        memo = self.__dict__.setdefault("_memo_table", {})
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def action_named(self, name: str) -> Action:
        for a in self.actions:
            if a.name == name:
                return a
        raise KeyError(name)
