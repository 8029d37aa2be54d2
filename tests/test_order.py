from __future__ import annotations

import itertools
from random import Random

import pytest

from riskstruct import (
    Band,
    Comparison,
    FeatureStatus,
    FeatureVariant,
    HazardId,
    HazardPhaseModel,
    MissingFeatureDeclaration,
    OrderClass,
    Phase,
    Severity,
    classify_by_order,
    degradation_equiv,
    feature_equiv,
    feature_profile,
    hazard_equiv,
    mishap_equiv,
    mitigation_equiv,
    mitigation_leq,
    parse_state,
    phase_leq,
    sv_compare,
    sv_scale,
)
from riskstruct.order import (
    FeatureBaseline,
    FeatureEffect,
    FeatureModel,
    phase_lt,
)

from helpers import (
    brute_force_hazard_equiv,
    brute_force_mishap_equiv,
    brute_force_mitigation_equiv,
    enumerate_tuple_space,
)

AB = (HazardPhaseModel(HazardId("A"), 3), HazardPhaseModel(HazardId("L"), 4))


def all_phases(n: int):
    return HazardPhaseModel(HazardId("h"), n).phases()


class TestPhaseOrder:
    def test_declared_pairs(self):
        e, zero, em = Phase.active(), Phase.inactive(), Phase.mishap()
        assert phase_leq(e, zero)
        assert phase_leq(e, Phase.mitigated(2))
        assert phase_leq(Phase.mitigated(2), zero)
        assert phase_leq(em, e)

    def test_reflexive_and_transitive_closure(self):
        zero, em = Phase.inactive(), Phase.mishap()
        assert phase_leq(zero, zero)
        assert phase_leq(em, zero)
        assert phase_leq(em, Phase.mitigated(1))

    def test_not_symmetric(self):
        assert not phase_leq(Phase.inactive(), Phase.active())

    def test_distinct_mitigated_incomparable(self):
        assert not phase_leq(Phase.mitigated(1), Phase.mitigated(2))
        assert not phase_leq(Phase.mitigated(2), Phase.mitigated(1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_partial_order_laws_exhaustive(self, n):
        phases = all_phases(n)
        for p in phases:
            assert phase_leq(p, p)
        for p, q in itertools.product(phases, repeat=2):
            if phase_leq(p, q) and phase_leq(q, p):
                assert p == q  # antisymmetry
        for p, q, r in itertools.product(phases, repeat=3):
            if phase_leq(p, q) and phase_leq(q, r):
                assert phase_leq(p, r)  # transitivity


class TestMitigationOrder:
    def test_componentwise(self):
        assert mitigation_leq(parse_state("A:e,L:0", AB), parse_state("A:0,L:0", AB))
        assert not mitigation_leq(
            parse_state("A:e,L:0", AB), parse_state("A:0,L:e", AB)
        )

    def test_reflexive(self):
        for name in ("A:0,L:0", "A:e,L:m2", "A:em,L:e"):
            s = parse_state(name, AB)
            assert mitigation_leq(s, s)

    def test_partial_order_laws_random(self):
        rng = Random(7)
        space = enumerate_tuple_space(AB)
        for _ in range(300):
            s, t, u = (rng.choice(space) for _ in range(3))
            if mitigation_leq(s, t) and mitigation_leq(t, s):
                assert s == t
            if mitigation_leq(s, t) and mitigation_leq(t, u):
                assert mitigation_leq(s, u)

    def test_rejects_mixed_hazard_sets(self):
        other = (HazardPhaseModel(HazardId("X"), 1),)
        with pytest.raises(ValueError):
            mitigation_leq(parse_state("A:0,L:0", AB), parse_state("X:0", other))


class TestClassifyByOrder:
    def test_activation_is_endangerment(self):
        assert (
            classify_by_order(parse_state("A:0,L:0", AB), parse_state("A:e,L:0", AB))
            is OrderClass.ENDANGERMENT
        )

    def test_mitigation_step(self):
        assert (
            classify_by_order(parse_state("A:e,L:0", AB), parse_state("A:m1,L:0", AB))
            is OrderClass.MITIGATION
        )

    def test_self_loop_is_neither(self):
        s = parse_state("A:e,L:0", AB)
        assert classify_by_order(s, s) is OrderClass.NEITHER

    def test_inter_mitigation_is_neither_but_equivalent(self):
        # Moves between two mitigated phases leave the mitigation order
        # undecided; such states are mitigation equivalent instead.
        a1, a2 = parse_state("A:m1,L:0", AB), parse_state("A:m2,L:0", AB)
        assert classify_by_order(a1, a2) is OrderClass.NEITHER
        assert mitigation_equiv(a1, a2)


class TestSeverityAlgebra:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (Severity.MARGINAL, Severity.CRITICAL, Comparison.LESS),
            (Severity.MARGINAL, Severity.FATAL, Comparison.LESS),
            (Severity.CRITICAL, Severity.FATAL, Comparison.LESS),
            (Severity.FATAL, Severity.FATAL, Comparison.EQUAL),
            (Severity.MARGINAL, Severity.MARGINAL, Comparison.EQUAL),
            (Severity.CRITICAL, Severity.CRITICAL, Comparison.EQUAL),
            (Severity.FATAL, Severity.MARGINAL, Comparison.GREATER),
            (Severity.FATAL, Severity.CRITICAL, Comparison.GREATER),
            (Severity.CRITICAL, Severity.MARGINAL, Comparison.GREATER),
        ],
    )
    def test_compare_table(self, a, b, expected):
        assert sv_compare(a, b) is expected

    @pytest.mark.parametrize(
        "band,sv,expected",
        [
            (Band.LOW, Severity.MARGINAL, Severity.MARGINAL),
            (Band.LOW, Severity.CRITICAL, Severity.MARGINAL),
            (Band.LOW, Severity.FATAL, Severity.MARGINAL),
            (Band.MEDIUM, Severity.MARGINAL, Severity.MARGINAL),
            (Band.MEDIUM, Severity.CRITICAL, Severity.MARGINAL),
            (Band.MEDIUM, Severity.FATAL, Severity.CRITICAL),
            (Band.HIGH, Severity.MARGINAL, Severity.MARGINAL),
            (Band.HIGH, Severity.CRITICAL, Severity.CRITICAL),
            (Band.HIGH, Severity.FATAL, Severity.FATAL),
        ],
    )
    def test_scale_table(self, band, sv, expected):
        assert sv_scale(band, sv) is expected

    def test_high_band_is_identity(self):
        for sv in Severity:
            assert sv_scale(Band.HIGH, sv) is sv


class TestEquivalences:
    def test_hazard_equiv_examples(self):
        assert hazard_equiv(parse_state("A:m1,L:e", AB), parse_state("A:e,L:m2", AB))
        assert not hazard_equiv(
            parse_state("A:m1,L:0", AB), parse_state("A:e,L:e", AB)
        )

    def test_mishap_equiv_examples(self):
        assert mishap_equiv(parse_state("A:em,L:0", AB), parse_state("A:em,L:e", AB))
        assert not mishap_equiv(
            parse_state("A:em,L:0", AB), parse_state("A:0,L:em", AB)
        )

    def test_mitigation_equiv_examples(self):
        assert mitigation_equiv(
            parse_state("A:m2,L:0", AB), parse_state("A:m3,L:0", AB)
        )
        assert not mitigation_equiv(
            parse_state("A:m1,L:0", AB), parse_state("A:e,L:0", AB)
        )

    def test_mitigation_equiv_componentwise_brute_force(self):
        # Independent check of the defining condition for one claimed pair.
        s, t = parse_state("A:m1,L:e", AB), parse_state("A:m2,L:e", AB)
        e = Phase.active()
        componentwise = all(
            (p.kind.value != "inactive") == (t.phase(h).kind.value != "inactive")
            and phase_lt(e, p) == phase_lt(e, t.phase(h))
            for h, p in s.entries
        )
        assert componentwise
        assert mitigation_equiv(s, t) == componentwise

    def test_equivalence_laws_random(self):
        rng = Random(11)
        space = enumerate_tuple_space(AB)
        relations = (hazard_equiv, mishap_equiv, mitigation_equiv)
        for _ in range(300):
            s, t, u = (rng.choice(space) for _ in range(3))
            for rel in relations:
                assert rel(s, s)
                assert rel(s, t) == rel(t, s)
                if rel(s, t) and rel(t, u):
                    assert rel(s, u)

    def test_keys_match_per_hazard_definitions_on_every_pair(self):
        rng = Random(17)
        relations = (
            (hazard_equiv, brute_force_hazard_equiv),
            (mishap_equiv, brute_force_mishap_equiv),
            (mitigation_equiv, brute_force_mitigation_equiv),
        )
        for _ in range(8):
            hazards = tuple(
                HazardPhaseModel(HazardId(f"H{i}"), rng.randint(1, 2))
                for i in range(rng.randint(1, 3))
            )
            space = enumerate_tuple_space(hazards)
            for s, t in itertools.product(space, repeat=2):
                for rel, oracle in relations:
                    assert rel(s, t) == oracle(s, t), (rel.__name__, s.name, t.name)

    def test_mitigation_refines_hazard_equiv(self):
        rng = Random(13)
        space = enumerate_tuple_space(AB)
        for _ in range(300):
            s, t = rng.choice(space), rng.choice(space)
            if mitigation_equiv(s, t):
                assert hazard_equiv(s, t)


GOLDEN_STATES = {
    "s0": "A:0,L:0",
    "A1": "A:m1,L:0",
    "A2": "A:m2,L:0",
    "A3": "A:m3,L:0",
    "AL": "A:e,L:e",
    "A1L": "A:m1,L:e",
}


class TestFeatureProfiles:
    def state(self, model, key):
        return model.state_named(GOLDEN_STATES[key])

    def test_nominal_profile(self, r2_model):
        profile = feature_profile(self.state(r2_model, "s0"), r2_model.features)
        assert profile["ACC"] == FeatureEffect(
            "ACC", FeatureVariant.PRIMARY, FeatureStatus.IN_LOOP_OPERATIONAL
        )
        assert profile["LKA"] == FeatureEffect(
            "LKA", FeatureVariant.PRIMARY, FeatureStatus.IN_LOOP_OPERATIONAL
        )
        assert profile["DRV"].status is FeatureStatus.STANDBY

    def test_degraded_stack_in_loop(self, r2_model):
        profile = feature_profile(self.state(r2_model, "A1"), r2_model.features)
        assert profile["ACC"] == FeatureEffect(
            "ACC", FeatureVariant.DEGRADED, FeatureStatus.IN_LOOP_OPERATIONAL
        )
        assert profile["LKA"] == FeatureEffect(
            "LKA", FeatureVariant.DEGRADED, FeatureStatus.IN_LOOP_OPERATIONAL
        )

    def test_overlay_composition(self, r2_model):
        profile = feature_profile(self.state(r2_model, "A1L"), r2_model.features)
        assert profile["ACC"] == FeatureEffect(
            "ACC", FeatureVariant.DEGRADED, FeatureStatus.IN_LOOP_OPERATIONAL
        )
        assert profile["LKA"] == FeatureEffect(
            "LKA", FeatureVariant.DEGRADED, FeatureStatus.IN_LOOP_FAULTY
        )

    def test_feature_equiv_claims(self, r2_model):
        f = r2_model.features
        s0, a1 = self.state(r2_model, "s0"), self.state(r2_model, "A1")
        a1l, al = self.state(r2_model, "A1L"), self.state(r2_model, "AL")
        assert feature_equiv(a1, s0, f)
        assert degradation_equiv(a1, a1l, f)
        assert feature_equiv(a1l, al, f)
        assert not degradation_equiv(a1, s0, f)

    def test_handover_states_equivalent(self, r2_model):
        f = r2_model.features
        a2, a3 = self.state(r2_model, "A2"), self.state(r2_model, "A3")
        assert feature_equiv(a2, a3, f)
        assert degradation_equiv(a2, a3, f)

    def test_missing_feature_declaration(self):
        hazards = (HazardPhaseModel(HazardId("A"), 1),)
        with pytest.raises(MissingFeatureDeclaration):
            FeatureModel(
                universe=(FeatureBaseline("ACC"),),
                effects=(
                    (
                        "A",
                        Phase.active(),
                        FeatureEffect(
                            "GHOST", FeatureVariant.PRIMARY, FeatureStatus.STANDBY
                        ),
                    ),
                ),
                priority=("A",),
            )

    def test_feature_equivalence_laws_on_golden(self, r2_model):
        f = r2_model.features
        states = r2_model.sorted_states()
        for s in states:
            assert feature_equiv(s, s, f)
            assert degradation_equiv(s, s, f)
        for s, t in itertools.product(states, repeat=2):
            assert feature_equiv(s, t, f) == feature_equiv(t, s, f)
            # degradation refines feature equivalence
            if degradation_equiv(s, t, f):
                assert feature_equiv(s, t, f)
        for s, t, u in itertools.product(states, repeat=3):
            if feature_equiv(s, t, f) and feature_equiv(t, u, f):
                assert feature_equiv(s, u, f)
