from __future__ import annotations

import math
from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from riskstruct import (
    DELTA_M,
    Band,
    BandThresholds,
    HazardId,
    HazardPhaseModel,
    PhaseKind,
    Region,
    RiskStructure,
    Severity,
    Transition,
    UnknownState,
    analysis_table,
    assign_regions,
    is_mishap,
    mishap_reach_probability,
    model_to_json,
    reach,
    risk_priorities,
    risk_priority,
)
from riskstruct.order import sv_min, sv_scale

from helpers import (
    brute_force_is_mishap,
    brute_force_max_path_product,
    brute_force_reach,
    enumerate_tuple_space,
    random_structure,
    with_bands,
    with_policy,
)


class TestReach:
    def test_mishap_reaches_only_itself(self, r2_model):
        mishap = r2_model.state_named("A:em,L:em")
        assert reach(r2_model, mishap) == {mishap}

    def test_initial_reaches_everything_in_reduced_model(self, r2_reduced):
        start = r2_reduced.state_named("A:0,L:0")
        closure = reach(r2_reduced, start)
        assert closure == r2_reduced.states
        assert closure == brute_force_reach(r2_reduced, start)

    def test_mitigation_closure_from_active_state(self, r2_reduced):
        start = r2_reduced.state_named("A:e,L:0")
        closure = reach(r2_reduced, start, DELTA_M)
        labels = {r2_reduced.label(s) for s in closure}
        assert labels == {"A:e,L:0", "A:m1,L:0", "A:m2,L:0|A:m3,L:0"}
        assert closure == brute_force_reach(r2_reduced, start, DELTA_M)

    def test_unknown_state(self, r2_model):
        from riskstruct import all_inactive, HazardPhaseModel, HazardId

        stray = all_inactive((HazardPhaseModel(HazardId("Z"), 1),))
        with pytest.raises(UnknownState):
            reach(r2_model, stray)


class TestRegions:
    def test_default_policy_examples(self, r2_model):
        regions = assign_regions(with_policy(r2_model, "no_active"))
        assert regions[r2_model.state_named("A:0,L:0")] is Region.SAFE
        assert regions[r2_model.state_named("A:e,L:0")] is Region.HAZARDOUS
        assert regions[r2_model.state_named("A:m2,L:0")] is Region.SAFE
        assert regions[r2_model.state_named("A:em,L:em")] is Region.MISHAP

    def test_region_matches_mishap_predicate(self, r2_model):
        regions = assign_regions(r2_model)
        for s in r2_model.states:
            assert (regions[s] is Region.MISHAP) == is_mishap(s)

    def test_handover_policy_partition(self, r2_model):
        assert r2_model.options.region_policy == "handover"
        regions = assign_regions(r2_model)
        safe = {
            r2_model.label(s) for s, r in regions.items() if r is Region.SAFE
        }
        assert safe == {"A:0,L:0", "A:m2,L:0", "A:m3,L:0", "A:m1,L:m2"}

    def test_no_active_policy_on_a_whole_tuple_space(self):
        # the policy reads a state's name; its entries decide the region
        hazards = tuple(
            HazardPhaseModel(HazardId(hid), n) for hid, n in (("e", 1), ("em", 11), ("Ae", 2))
        )
        states = enumerate_tuple_space(hazards)
        model = RiskStructure(
            hazards=hazards,
            states=frozenset(states),
            transitions=(),
            initial=frozenset(states[:1]),
            sv={s: Severity.MARGINAL for s in states if brute_force_is_mishap(s)},
        )
        assert model.options.region_policy == "no_active"
        regions = assign_regions(model)
        for s in states:
            kinds = {p.kind for _, p in s.entries}
            if PhaseKind.MISHAP in kinds:
                expected = Region.MISHAP
            elif PhaseKind.ACTIVE in kinds:
                expected = Region.HAZARDOUS
            else:
                expected = Region.SAFE
            assert regions[s] is expected, s.name


class TestBandThresholds:
    def test_edges(self):
        th = BandThresholds()
        assert th.band(0.0) is Band.LOW
        assert th.band(0.009999) is Band.LOW
        assert th.band(0.01) is Band.MEDIUM
        assert th.band(0.09999) is Band.MEDIUM
        assert th.band(0.1) is Band.HIGH
        assert th.band(1.0) is Band.HIGH

    def test_validation(self):
        with pytest.raises(ValueError):
            BandThresholds(l_below=0.0)
        with pytest.raises(ValueError):
            BandThresholds(l_below=0.5, h_at_least=0.2)


class TestMishapReachProbability:
    def test_target_state_itself(self, r2_model):
        mishap = r2_model.state_named("A:em,L:em")
        assert mishap_reach_probability(r2_model, mishap) == 1.0

    def test_unreachable_targets(self, r2_model):
        a2 = r2_model.state_named("A:m2,L:0")
        assert mishap_reach_probability(r2_model, a2) == 0.0

    def test_initial_state_value(self, r2_model):
        # two best routes, both .01 * .02 * .5
        s0 = r2_model.state_named("A:0,L:0")
        got = mishap_reach_probability(r2_model, s0)
        oracle = brute_force_max_path_product(
            r2_model, s0, r2_model.mishap_states()
        )
        assert got == pytest.approx(1.0e-4, abs=1e-12)
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_oracle_equivalence_on_random_structures(self):
        rng = Random(101)
        for _ in range(30):
            model = random_structure(rng)
            mishaps = model.mishap_states()
            for s in model.sorted_states():
                got = mishap_reach_probability(model, s)
                expected = brute_force_max_path_product(model, s, mishaps)
                assert got == pytest.approx(expected, abs=1e-12)

    def test_adding_a_transition_never_decreases(self, r2_model):
        base = {
            s: mishap_reach_probability(r2_model, s) for s in r2_model.states
        }
        # wire the dead-end state into the hazardous core: A:m1,L:e --> A:e,L:e
        a1l = r2_model.state_named("A:m1,L:e")
        al = r2_model.state_named("A:e,L:e")
        action = r2_model.action_named("f_A")
        extra = Transition(a1l, action, al, pr=0.3)
        bigger = replace(
            r2_model, transitions=r2_model.transitions + (extra,)
        )
        for s in bigger.states:
            assert mishap_reach_probability(bigger, s) >= base[s] - 1e-15


class TestRiskPriority:
    def test_handover_states_are_marginal(self, r2_model):
        for name in ("A:m2,L:0", "A:m3,L:0"):
            s = r2_model.state_named(name)
            assert risk_priority(r2_model, s) is Severity.MARGINAL

    def test_mishap_state_keeps_its_severity(self, r2_model):
        mishap = r2_model.state_named("A:em,L:em")
        assert risk_priority(r2_model, mishap) is Severity.FATAL

    def test_near_mishap_state(self, r2_model):
        al = r2_model.state_named("A:e,L:e")
        # probability 0.5 sits in the high band; high scaling is the identity
        assert risk_priority(r2_model, al) is Severity.FATAL

    def test_marginal_when_no_mishap_reachable(self, r2_model):
        for name in ("A:m1,L:0", "A:m1,L:e", "A:e,L:m1", "A:0,L:m1", "A:m1,L:m2"):
            s = r2_model.state_named(name)
            assert mishap_reach_probability(r2_model, s) == 0.0
            assert risk_priority(r2_model, s) is Severity.MARGINAL

    def test_band_scaling_on_initial_chain(self, r2_model):
        # probabilities 1e-4 (low), .01 (medium), .005 (low) against a fatal mishap
        s0 = r2_model.state_named("A:0,L:0")
        a = r2_model.state_named("A:e,L:0")
        l = r2_model.state_named("A:0,L:e")
        assert risk_priority(r2_model, s0) is Severity.MARGINAL
        assert risk_priority(r2_model, a) is Severity.CRITICAL
        assert risk_priority(r2_model, l) is Severity.MARGINAL

    def test_threshold_override(self, r2_model):
        a = r2_model.state_named("A:e,L:0")
        tight = BandThresholds(l_below=1e-6, h_at_least=1e-3)
        assert risk_priority(with_bands(r2_model, tight), a) is Severity.FATAL


def _oracle_priorities(model, state) -> set:
    """Risk priorities the brute-force oracle admits for ``state`` under the
    model's band thresholds: a probability within a relative 1e-9 of a band
    threshold may fall in either band."""
    if is_mishap(state):
        return {model.sv[state]}
    mishaps = model.mishap_states()
    reachable = brute_force_reach(model, state) & mishaps
    if not reachable:
        return {Severity.MARGINAL}
    thresholds = model.options.bands
    p = brute_force_max_path_product(model, state, mishaps)
    edges = [e for e in (thresholds.l_below, thresholds.h_at_least) if abs(p - e) <= 1e-9 * e]
    probabilities = [p, *edges, *(math.nextafter(e, 0.0) for e in edges)]
    least = sv_min([model.sv[s] for s in reachable])
    return {sv_scale(thresholds.band(q), least) for q in probabilities}


class TestAnalysisTable:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bands=st.tuples(st.floats(1e-6, 1.0), st.floats(1e-6, 1.0)).map(sorted),
    )
    def test_matches_brute_force(self, seed, bands):
        model = random_structure(Random(seed))
        banded = with_bands(model, BandThresholds(*bands))
        mishaps = model.mishap_states()
        table = analysis_table(model)
        banded_table = analysis_table(banded)
        for s in model.sorted_states():
            expected = brute_force_max_path_product(model, s, mishaps)
            assert abs(table.pr[s] - expected) <= 1e-12
            reachable = brute_force_reach(model, s) & mishaps
            assert table.least_sv.get(s) == (
                sv_min([model.sv[t] for t in reachable]) if reachable else None
            )
            assert mishap_reach_probability(model, s) == table.pr[s]
            assert banded_table.pr[s] == table.pr[s]
            assert table.rp[s] in _oracle_priorities(model, s)
            assert banded_table.rp[s] in _oracle_priorities(banded, s)
            assert risk_priority(banded, s) is banded_table.rp[s]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_witness_paths_attain_the_probability(self, seed):
        model = random_structure(Random(seed))
        table = analysis_table(model)
        targets = model.mishap_states()
        for s in model.states:
            product, step, seen = 1.0, s, {s}
            while step in table.witness:
                t = table.witness[step]
                assert t.source == step
                product *= t.pr if t.pr is not None else 1.0
                step = t.target
                assert step not in seen
                seen.add(step)
            if table.pr[s] > 0.0:
                assert step in targets
                assert product == table.pr[s]
            else:
                assert s not in table.witness

    def test_risk_priorities_cover_every_state(self, r2_model):
        rps = risk_priorities(r2_model)
        assert set(rps) == r2_model.states
        assert all(rps[s] is risk_priority(r2_model, s) for s in r2_model.states)

    def test_risk_priorities_are_computed_once(self, r2_model):
        model = replace(r2_model)
        assert risk_priorities(model) is risk_priorities(model)
        assert risk_priorities(model) is analysis_table(model).rp
        with pytest.raises(TypeError):
            risk_priorities(model)[model.state_named("A:0,L:0")] = Severity.FATAL

    def test_reassigned_options_give_their_priorities(self, r2_model):
        model = replace(r2_model)
        s0 = model.state_named("A:0,L:0")  # 1e-4 against a fatal mishap
        assert risk_priorities(model)[s0] is Severity.MARGINAL
        tight = with_bands(model, BandThresholds(1e-6, 1e-3))
        assert risk_priorities(tight)[s0] is Severity.CRITICAL
        assert risk_priority(tight, s0) is Severity.CRITICAL
        assert risk_priorities(model)[s0] is Severity.MARGINAL

    def test_cache_is_per_instance(self, r2_model):
        model = replace(r2_model)
        before = (repr(model), model_to_json(model))
        table = analysis_table(model)
        assert analysis_table(model) is table
        assert model.outgoing() is model.outgoing()
        assert (repr(model), model_to_json(model)) == before
        assert model == r2_model

        # wire a dead-end state into the hazardous core
        a1l = model.state_named("A:m1,L:e")
        extra = Transition(a1l, model.action_named("f_A"), model.state_named("A:e,L:e"), pr=0.3)
        bigger = replace(model, transitions=model.transitions + (extra,))
        assert analysis_table(bigger) is not table
        assert extra in bigger.outgoing()[a1l]
        assert extra not in model.outgoing()[a1l]
        assert mishap_reach_probability(bigger, a1l) > 0.0
        assert mishap_reach_probability(model, a1l) == 0.0
        assert bigger != model

    def test_reassigned_transitions_drop_the_cache(self, r2_model):
        model = replace(r2_model)
        s0 = model.state_named("A:0,L:0")
        assert mishap_reach_probability(model, s0) > 0.0
        cut = replace(model, transitions=())
        assert cut.outgoing()[s0] == ()
        assert mishap_reach_probability(cut, s0) == 0.0
        assert mishap_reach_probability(model, s0) > 0.0
