"""Mitigation order, action classification, severity algebra, equivalences.

The per-hazard phase order reads "further in mitigation is better": the
mishap phase sits below active, active below every mitigated phase, and every
mitigated phase below inactive; distinct mitigated phases are incomparable.
States compare componentwise.

Each state equivalence is defined once, as a key function (``hazard_key``,
``mishap_key``, ``mitigation_key``, ``feature_key``, ``degradation_key``):
two states are equivalent exactly when their keys are equal.  The
predicates below and the quotients of :mod:`riskstruct.reduce` both use
these keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .core import (
    Band,
    Phase,
    PhaseKind,
    RiskModelError,
    RiskState,
    Severity,
)


class MissingFeatureDeclaration(RiskModelError):
    """A feature effect references a feature outside the declared universe."""


_PHASE_LEVEL = {
    PhaseKind.MISHAP: 0,
    PhaseKind.ACTIVE: 1,
    PhaseKind.MITIGATED: 2,
    PhaseKind.INACTIVE: 3,
}


def phase_leq(p: Phase, q: Phase) -> bool:
    """Reflexive-transitive phase order: q is at least as far in mitigation as p.

    Distinct mitigated phases are incomparable.
    """
    if p == q:
        return True
    return _PHASE_LEVEL[p.kind] < _PHASE_LEVEL[q.kind]


def phase_lt(p: Phase, q: Phase) -> bool:
    return p != q and phase_leq(p, q)


def level_sum(state: RiskState) -> int:
    """Sum over hazards of the phase level (mishap 0, active 1, mitigated 2,
    inactive 3).

    It strictly increases along :func:`mitigation_lt`: every hazard keeps its
    phase or climbs a level, and at least one hazard changes.
    """
    return sum(_PHASE_LEVEL[p.kind] for _, p in state.entries)


def mitigation_leq(s: RiskState, t: RiskState) -> bool:
    """Componentwise phase order over states with the same hazard set."""
    _check_same_hazards(s, t)
    return all(phase_leq(p, q) for (_, p), (_, q) in zip(s.entries, t.entries))


def mitigation_lt(s: RiskState, t: RiskState) -> bool:
    return s != t and mitigation_leq(s, t)


def maxima(members: Iterable[RiskState]) -> list[RiskState]:
    """The members that no member strictly dominates in mitigation order.

    A strictly better state has a strictly larger :func:`level_sum`, so the
    members are visited by descending level sum and each is tested only
    against the maxima kept from higher sums: whatever dominates it is, or is
    dominated by, one of those (Kung, Luccio & Preparata, "On finding the
    maxima of a set of vectors", JACM 1975).  Members of one level sum never
    dominate each other; a class of the ``m`` quotient (equal
    :func:`mitigation_key` and :func:`mishap_key`) has one level vector, so
    it costs no comparison at all.
    """
    by_level: dict[int, list[RiskState]] = {}
    for s in members:
        by_level.setdefault(level_sum(s), []).append(s)
    found: list[RiskState] = []
    for level in sorted(by_level, reverse=True):
        found += [
            s for s in by_level[level] if not any(mitigation_lt(s, t) for t in found)
        ]
    return found


class OrderClass(Enum):
    ENDANGERMENT = "endangerment"
    MITIGATION = "mitigation"
    NEITHER = "neither"


def classify_by_order(source: RiskState, target: RiskState) -> OrderClass:
    """Order-based step classification.

    A step is an endangerment when it strictly decreases the state and a
    mitigation when it strictly increases it.  Steps between incomparable
    states (e.g. between two distinct mitigated phases of the same hazard)
    and self-loops classify as neither.
    """
    if mitigation_lt(target, source):
        return OrderClass.ENDANGERMENT
    if mitigation_lt(source, target):
        return OrderClass.MITIGATION
    return OrderClass.NEITHER


class Comparison(Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"


def sv_compare(a: Severity, b: Severity) -> Comparison:
    if a.rank < b.rank:
        return Comparison.LESS
    if a.rank > b.rank:
        return Comparison.GREATER
    return Comparison.EQUAL


def sv_min(severities: Sequence[Severity]) -> Severity:
    if not severities:
        raise ValueError("sv_min of empty sequence")
    return min(severities, key=lambda s: s.rank)


def sv_max(severities: Sequence[Severity]) -> Severity:
    if not severities:
        raise ValueError("sv_max of empty sequence")
    return max(severities, key=lambda s: s.rank)


_SV_SCALE = {
    (Band.LOW, Severity.MARGINAL): Severity.MARGINAL,
    (Band.LOW, Severity.CRITICAL): Severity.MARGINAL,
    (Band.LOW, Severity.FATAL): Severity.MARGINAL,
    (Band.MEDIUM, Severity.MARGINAL): Severity.MARGINAL,
    (Band.MEDIUM, Severity.CRITICAL): Severity.MARGINAL,
    (Band.MEDIUM, Severity.FATAL): Severity.CRITICAL,
    (Band.HIGH, Severity.MARGINAL): Severity.MARGINAL,
    (Band.HIGH, Severity.CRITICAL): Severity.CRITICAL,
    (Band.HIGH, Severity.FATAL): Severity.FATAL,
}


def sv_scale(band: Band, severity: Severity) -> Severity:
    """Scale a severity by a probability band; the high band is the identity."""
    return _SV_SCALE[(band, severity)]


def hazard_key(state: RiskState) -> tuple[bool, ...]:
    """Per hazard: is it inactive?"""
    return tuple(p.kind is PhaseKind.INACTIVE for _, p in state.entries)


def mishap_key(state: RiskState) -> tuple[bool, ...]:
    """Per hazard: is it in the mishap phase?"""
    return tuple(p.kind is PhaseKind.MISHAP for _, p in state.entries)


def mitigation_key(state: RiskState) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    """The hazard key plus, per hazard, "strictly better than active".

    A phase is strictly better than active exactly when the hazard is
    mitigated or inactive.
    """
    better = (PhaseKind.MITIGATED, PhaseKind.INACTIVE)
    return hazard_key(state), tuple(p.kind in better for _, p in state.entries)


def hazard_equiv(s: RiskState, t: RiskState) -> bool:
    """Per-hazard agreement on inactive vs. not inactive."""
    _check_same_hazards(s, t)
    return hazard_key(s) == hazard_key(t)


def mishap_equiv(s: RiskState, t: RiskState) -> bool:
    """Per-hazard agreement on the mishap phase."""
    _check_same_hazards(s, t)
    return mishap_key(s) == mishap_key(t)


def mitigation_equiv(s: RiskState, t: RiskState) -> bool:
    """Hazard equivalence plus agreement on "strictly better than active"."""
    _check_same_hazards(s, t)
    return mitigation_key(s) == mitigation_key(t)


class FeatureVariant(Enum):
    PRIMARY = "primary"
    DEGRADED = "degraded"


class FeatureStatus(Enum):
    IN_LOOP_OPERATIONAL = "in_loop_operational"
    IN_LOOP_FAULTY = "in_loop_faulty"
    OUT_OF_LOOP = "out_of_loop"
    STANDBY = "standby"


IN_LOOP = frozenset({FeatureStatus.IN_LOOP_OPERATIONAL, FeatureStatus.IN_LOOP_FAULTY})


@dataclass(frozen=True)
class FeatureEffect:
    """One feature's variant and loop status contributed by a hazard phase."""

    feature: str
    variant: FeatureVariant
    status: FeatureStatus


@dataclass(frozen=True)
class FeatureBaseline:
    """A declared feature with its nominal variant and status.

    ``fallback`` marks features (such as the human driver) whose presence in
    the loop counts as a safe handover for region policies.
    """

    name: str
    variant: FeatureVariant = FeatureVariant.PRIMARY
    status: FeatureStatus = FeatureStatus.IN_LOOP_OPERATIONAL
    fallback: bool = False


@dataclass(frozen=True)
class FeatureModel:
    """Feature universe plus per-(hazard, phase) effects.

    Effects overlay the baseline in ``priority`` order; when two hazards set
    the same feature, the hazard later in the priority list wins.
    """

    universe: tuple[FeatureBaseline, ...]
    effects: tuple[tuple[str, Phase, FeatureEffect], ...]
    priority: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = [f.name for f in self.universe]
        if len(set(names)) != len(names):
            raise ValueError("duplicate feature declarations")
        for hid, _, eff in self.effects:
            if eff.feature not in names:
                raise MissingFeatureDeclaration(
                    f"feature {eff.feature!r} (effect of hazard {hid!r}) "
                    "is not declared in the feature universe"
                )

    def fallback_features(self) -> frozenset[str]:
        return frozenset(f.name for f in self.universe if f.fallback)

    def effects_for(self, hazard_id: str, phase: Phase) -> tuple[FeatureEffect, ...]:
        return tuple(
            eff for hid, ph, eff in self.effects if hid == hazard_id and ph == phase
        )


FeatureProfile = dict[str, FeatureEffect]


def feature_profile(state: RiskState, features: FeatureModel) -> FeatureProfile:
    """Compose the state's feature profile from baseline and phase effects.

    Hazards appear in the model's priority order (hazards missing from that
    order come last in state order); later effects override earlier ones.
    Phases without declared effects inherit the nominal profile.
    """
    profile: FeatureProfile = {
        f.name: FeatureEffect(f.name, f.variant, f.status) for f in features.universe
    }
    ordered = [h for h in features.priority if h in state.hazard_ids]
    ordered += [h for h in state.hazard_ids if h not in ordered]
    for hid in ordered:
        for eff in features.effects_for(hid, state.phase(hid)):
            profile[eff.feature] = eff
    return profile


def in_loop_features(profile: FeatureProfile) -> frozenset[str]:
    return frozenset(n for n, e in profile.items() if e.status in IN_LOOP)


def degraded_in_loop_features(profile: FeatureProfile) -> frozenset[str]:
    return frozenset(
        n
        for n, e in profile.items()
        if e.status in IN_LOOP and e.variant is FeatureVariant.DEGRADED
    )


def feature_key(state: RiskState, features: FeatureModel) -> frozenset[str]:
    """The set of in-the-loop features, faulty or degraded or not."""
    return in_loop_features(feature_profile(state, features))


def degradation_key(
    state: RiskState, features: FeatureModel
) -> tuple[frozenset[str], frozenset[str]]:
    """The feature key plus the set of degraded in-loop features."""
    profile = feature_profile(state, features)
    return in_loop_features(profile), degraded_in_loop_features(profile)


def feature_equiv(s: RiskState, t: RiskState, features: FeatureModel) -> bool:
    """Same set of in-the-loop features, faulty or degraded or not."""
    return feature_key(s, features) == feature_key(t, features)


def degradation_equiv(s: RiskState, t: RiskState, features: FeatureModel) -> bool:
    """Feature equivalence plus the same set of degraded in-loop features."""
    return degradation_key(s, features) == degradation_key(t, features)


def _check_same_hazards(s: RiskState, t: RiskState) -> None:
    if s.hazard_ids != t.hazard_ids:
        raise ValueError(
            f"states range over different hazard sets: "
            f"{s.hazard_ids} vs {t.hazard_ids}"
        )
