from __future__ import annotations

import itertools
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from riskstruct import (
    Action,
    ActionClass,
    BandThresholds,
    HazardId,
    HazardPhaseModel,
    Phase,
    Plan,
    RiskStructure,
    Severity,
    Transition,
    is_mitigation_monotonous,
    make_plan,
    mitigation_lt,
    plan_mitigations,
    risk_priority,
    safest_possible_states,
    state_from_phases,
)

from helpers import (
    brute_force_best_plan,
    brute_force_maxima,
    brute_force_plans,
    brute_force_reach,
    random_shared_name_structure,
    random_structure,
    with_bands,
)
from riskstruct import plan as plan_module
from riskstruct.analysis import DELTA_M


class TestSafestPossibleStates:
    def test_from_active_state_contains_handover(self, r2_reduced):
        a = r2_reduced.state_named("A:e,L:0")
        labels = {r2_reduced.label(s) for s in safest_possible_states(r2_reduced, a)}
        assert "A:m2,L:0|A:m3,L:0" in labels

    def test_initial_state_is_its_own_safest(self, r2_reduced):
        s0 = r2_reduced.state_named("A:0,L:0")
        assert safest_possible_states(r2_reduced, s0) == {s0}

    def test_from_double_fault_state(self, r2_reduced):
        al = r2_reduced.state_named("A:e,L:e")
        # brute-force oracle: maximal elements of the mitigation-only closure
        closure = brute_force_reach(r2_reduced, al, DELTA_M)
        maximal = {
            t for t in closure if not any(mitigation_lt(t, u) for u in closure)
        }
        got = safest_possible_states(r2_reduced, al)
        assert got == maximal
        assert {r2_reduced.label(s) for s in got} == {"A:m1,L:m2"}

    def test_output_is_an_antichain(self, r2_model, r3_model):
        for model in (r2_model, r3_model):
            for s in model.sorted_states():
                result = safest_possible_states(model, s)
                for a, b in itertools.permutations(result, 2):
                    assert not mitigation_lt(a, b)

    def test_antichain_on_random_structures(self):
        # the all-pairs maxima of the scanned closure: the antichain of all
        # undominated states, not just some antichain (an empty one would do)
        rng = Random(31)
        for _ in range(20):
            model = random_structure(rng)
            for s in model.sorted_states():
                closure = brute_force_reach(model, s, DELTA_M)
                expected = frozenset(brute_force_maxima(closure))
                assert safest_possible_states(model, s) == expected


class TestPlanMitigations:
    def test_ranking_prefers_cheaper_equal_risk_plan(self, r2_reduced):
        a = r2_reduced.state_named("A:e,L:0")
        plans = {
            r2_reduced.label(p.end): p for p in plan_mitigations(r2_reduced, a)
        }
        merged = plans["A:m2,L:0|A:m3,L:0"]
        # the one-step handover beats the two-step route on cost (3 vs 15)
        assert merged.action_names() == ("m3_A",)
        assert merged.total_cost == 3
        direct = plans["A:m1,L:0"]
        assert direct.action_names() == ("m1_A",)
        assert direct.total_cost == 10

    def test_exhaustive_route_comparison(self, r2_reduced):
        # independent enumeration of both candidate routes to the merged state
        a = r2_reduced.state_named("A:e,L:0")
        adjacency = r2_reduced.outgoing()
        target_label = "A:m2,L:0|A:m3,L:0"
        routes = []

        def walk(state, path, seen):
            if r2_reduced.label(state) == target_label:
                routes.append(tuple(path))
                return
            for t in adjacency[state]:
                if t.action.kind is ActionClass.MITIGATION and t.target not in seen:
                    path.append(t)
                    walk(t.target, path, seen | {t.target})
                    path.pop()

        walk(a, [], {a})
        assert {tuple(t.action.name for t in r) for r in routes} == {
            ("m3_A",),
            ("m1_A", "m2_A"),
        }
        plans = [make_plan(r2_reduced, r) for r in routes]
        ranked = sorted(
            plans,
            key=lambda p: (p.max_rp.rank, p.total_cost, len(p.path), p.action_names()),
        )
        assert ranked[0].action_names() == ("m3_A",)

    def test_no_plans_from_initial(self, r2_reduced):
        s0 = r2_reduced.state_named("A:0,L:0")
        assert plan_mitigations(r2_reduced, s0) == []

    def test_plan_through_controlled_stop(self, r3_model):
        a1lr = r3_model.state_named("A:m1,L:e,R:e")
        plans = plan_mitigations(r3_model, a1lr)
        assert len(plans) == 1
        assert plans[0].action_names() == ("m3_L",)
        assert r3_model.label(plans[0].end) == "A:m1,L:m2,R:e"

    def test_plans_use_only_mitigations(self, r2_model, r3_model):
        for model in (r2_model, r3_model):
            for s in model.sorted_states():
                for plan in plan_mitigations(model, s):
                    for t in plan.path:
                        assert t.action.kind is ActionClass.MITIGATION

    def test_plans_chain_and_report_attainment(self, r2_reduced):
        a = r2_reduced.state_named("A:e,L:0")
        for plan in plan_mitigations(r2_reduced, a):
            for first, second in zip(plan.path, plan.path[1:]):
                assert first.target == second.source
            product = 1.0
            for t in plan.path:
                product *= t.pr if t.pr is not None else 1.0
            assert plan.attainment == pytest.approx(product)

    @pytest.mark.parametrize("path, line", [
        (lambda edges: (), "a plan needs at least one transition"),
        (lambda edges: (edges[0], edges[0]), "plan transitions do not chain"),
    ], ids=["empty", "no-chain"])
    def test_refused_with_one_line(self, r2_model, path, line):
        with pytest.raises(ValueError) as err:
            Plan(path(r2_model.transitions), 0, Severity.MARGINAL, 1.0)
        assert str(err.value) == line

    def test_ordered_by_target_label(self, r2_model):
        a = r2_model.state_named("A:e,L:0")
        plans = plan_mitigations(r2_model, a)
        labels = [r2_model.label(p.end) for p in plans]
        assert labels == sorted(labels)


class TestPlannerOracle:
    """``plan_mitigations`` against the exhaustive simple-path search."""

    @staticmethod
    def _check(model, bands):
        model = with_bands(model, BandThresholds(*bands))
        for start in model.sorted_states():
            for allow_ordinary in (False, True):
                assert plan_mitigations(
                    model, start, allow_ordinary
                ) == brute_force_plans(model, start, allow_ordinary)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bands=st.tuples(st.floats(1e-6, 1.0), st.floats(1e-6, 1.0)).map(sorted),
    )
    def test_random_structures(self, seed, bands):
        self._check(random_structure(Random(seed)), bands)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bands=st.tuples(st.floats(1e-6, 1.0), st.floats(1e-6, 1.0)).map(sorted),
    )
    def test_shared_names_and_ordinary_edges(self, seed, bands):
        # plans tie on cost, length and action names; the first in adjacency
        # order must win, as it does in the exhaustive search
        self._check(random_shared_name_structure(Random(seed)), bands)

    def test_full_key_tie_goes_to_the_first_path_in_adjacency_order(self):
        # S -a-> X -b-> Z -c-> T and S -a-> Y -b-> W -c-> T tie on cost,
        # length and action names; X precedes Y by name but W precedes Z, so
        # ranking ties by the last state alone would pick the second path
        hazards = (HazardPhaseModel(HazardId("P"), 2), HazardPhaseModel(HazardId("Q"), 2))

        def state(p, q):
            return state_from_phases(hazards, {"P": Phase.parse(p), "Q": Phase.parse(q)})

        s, x, y = state("e", "e"), state("m1", "e"), state("m2", "e")
        z, w, t = state("m1", "m1"), state("0", "e"), state("0", "0")
        assert x.name < y.name and w.name < z.name
        a, b, c = (Action(n, ActionClass.MITIGATION, ()) for n in "abc")
        edges = [(s, a, x), (s, a, y), (x, b, z), (y, b, w), (z, c, t), (w, c, t)]
        model = RiskStructure(
            hazards=hazards,
            states=frozenset({s, x, y, z, w, t}),
            transitions=tuple(
                Transition(u, act, v, pr=1.0, cs=1, checked=False) for u, act, v in edges
            ),
            initial=frozenset({t}),
        )
        (plan,) = plan_mitigations(model, s)
        assert plan.states() == (s, x, z, t)
        assert plan == brute_force_best_plan(model, s, t, {ActionClass.MITIGATION})

    def test_binding_threshold_takes_the_dearer_path(self):
        # the cheap route calm, fix passes a state one likely step from a
        # fatal mishap; the plan pays 5 to stay at the start's risk priority
        hazards = (HazardPhaseModel(HazardId("P"), 1), HazardPhaseModel(HazardId("Q"), 1))

        def state(p, q):
            return state_from_phases(hazards, {"P": Phase.parse(p), "Q": Phase.parse(q)})

        start, middle, aside = state("e", "m1"), state("e", "0"), state("m1", "m1")
        end, mishap = state("m1", "0"), state("em", "0")
        calm = Action("calm", ActionClass.MITIGATION, (("Q", Phase.inactive()),))
        fix = Action("fix", ActionClass.MITIGATION, (("P", Phase.mitigated(1)),))
        boom = Action("boom", ActionClass.MISHAP_ACTION, (("P", Phase.mishap()),))
        model = RiskStructure(
            hazards=hazards,
            states=frozenset({start, middle, aside, end, mishap}),
            transitions=(
                Transition(start, calm, middle, pr=0.001, cs=1),
                Transition(middle, fix, end, pr=0.9, cs=1),
                Transition(middle, boom, mishap, pr=0.9),
                Transition(start, fix, aside, pr=0.9, cs=4),
                Transition(aside, calm, end, pr=0.9, cs=1),
            ),
            initial=frozenset({end}),
            sv={mishap: Severity.FATAL},
        )
        assert risk_priority(model, middle).rank > risk_priority(model, start).rank
        (plan,) = plan_mitigations(model, start)
        assert plan.states() == (start, aside, end)
        assert plan.total_cost == 5
        assert plan.max_rp == risk_priority(model, start)
        assert plan == brute_force_best_plan(model, start, end, {ActionClass.MITIGATION})

    def test_one_make_plan_per_returned_plan(self, monkeypatch, r2_model, r3_model):
        calls = 0
        make = plan_module.make_plan

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return make(*args, **kwargs)

        monkeypatch.setattr(plan_module, "make_plan", counting)
        returned = 0
        for model in (r2_model, r3_model):
            for start in model.sorted_states():
                returned += len(plan_mitigations(model, start, allow_ordinary=True))
        assert returned > 0
        assert calls == returned


class TestOrdinaryActions:
    def test_ordinary_self_loops_are_admitted_but_harmless(self):
        from riskstruct import (
            Action,
            HazardId,
            HazardPhaseModel,
            Phase,
            RiskStructure,
            Transition,
            state_from_phases,
        )
        from riskstruct import reach

        hazards = (HazardPhaseModel(HazardId("P"), 1),)
        active = state_from_phases(hazards, {"P": Phase.active()})
        done = state_from_phases(hazards, {"P": Phase.mitigated(1)})
        cruise = Action("cruise", ActionClass.ORDINARY, ())
        fix = Action("fix", ActionClass.MITIGATION, (("P", Phase.mitigated(1)),))
        model = RiskStructure(
            hazards=hazards,
            states=frozenset({active, done}),
            transitions=(
                Transition(active, cruise, active),
                Transition(active, fix, done, pr=0.9, cs=1),
            ),
            initial=frozenset({active}),
        )
        assert reach(model, active, DELTA_M) == {active, done}
        with_flag = plan_mitigations(model, active, allow_ordinary=True)
        without = plan_mitigations(model, active)
        assert [p.action_names() for p in with_flag] == [("fix",)]
        assert with_flag == without


class TestMitigationMonotonicity:
    def test_golden_handover_plan_is_monotonous(self, r2_reduced):
        a = r2_reduced.state_named("A:e,L:0")
        plans = plan_mitigations(r2_reduced, a)
        for plan in plans:
            # risk priority falls from critical to marginal along these plans
            assert is_mitigation_monotonous(r2_reduced, plan)

    def test_equal_rp_plan_is_monotonous(self, r2_model):
        a1lr_free_plan = plan_mitigations(
            r2_model, r2_model.state_named("A:e,L:e")
        )
        for plan in a1lr_free_plan:
            assert is_mitigation_monotonous(r2_model, plan)

    def test_violation_detected_and_slack_tolerates(self, r2_reduced):
        # force a rise by ranking every non-mishap state marginal except the
        # endpoint, via an adversarial threshold set
        a = r2_reduced.state_named("A:e,L:0")
        plan = plan_mitigations(r2_reduced, a)[0]
        rps = [
            risk_priority(r2_reduced, s) for s in plan.states()
        ]
        rising = any(b.rank > a_.rank for a_, b in zip(rps, rps[1:]))
        assert is_mitigation_monotonous(r2_reduced, plan) == (not rising)
        assert is_mitigation_monotonous(r2_reduced, plan, slack=len(plan.path))

    def test_intermediate_spike_breaks_monotonicity(self):
        # start and end are marginal, the middle state sits one cheap step
        # from a near-certain fatal mishap: the plan through it is not
        # monotonous, but one unit of slack forgives the single rise
        from riskstruct import (
            Action,
            HazardId,
            HazardPhaseModel,
            Phase,
            RiskStructure,
            Severity,
            Transition,
            state_from_phases,
        )

        hazards = (
            HazardPhaseModel(HazardId("P"), 1),
            HazardPhaseModel(HazardId("Q"), 1),
        )
        start = state_from_phases(hazards, {"P": Phase.active(), "Q": Phase.mitigated(1)})
        middle = state_from_phases(hazards, {"P": Phase.active(), "Q": Phase.inactive()})
        end = state_from_phases(hazards, {"P": Phase.mitigated(1), "Q": Phase.inactive()})
        mishap = state_from_phases(hazards, {"P": Phase.mishap(), "Q": Phase.inactive()})
        m_q = Action("calm", ActionClass.MITIGATION, (("Q", Phase.inactive()),))
        m_p = Action("fix", ActionClass.MITIGATION, (("P", Phase.mitigated(1)),))
        boom = Action("boom", ActionClass.MISHAP_ACTION, (("P", Phase.mishap()),))
        model = RiskStructure(
            hazards=hazards,
            states=frozenset({start, middle, end, mishap}),
            transitions=(
                Transition(start, m_q, middle, pr=0.001, cs=1),
                Transition(middle, m_p, end, pr=0.9, cs=1),
                Transition(middle, boom, mishap, pr=0.9),
            ),
            initial=frozenset({start}),
            sv={mishap: Severity.FATAL},
        )
        adjacency = model.outgoing()
        (calm_edge,) = adjacency[start]
        fix_edge = next(t for t in adjacency[middle] if t.action.name == "fix")
        plan = make_plan(model, [calm_edge, fix_edge])
        assert plan.states() == (start, middle, end)
        rps = [risk_priority(model, s) for s in plan.states()]
        assert [r.value for r in rps] == ["m", "f", "m"]
        assert not is_mitigation_monotonous(model, plan)
        assert is_mitigation_monotonous(model, plan, slack=1)

    def test_filter_keeps_a_plan_when_a_direct_one_qualifies(
        self, r2_model, r3_model, r2_reduced
    ):
        # whenever some single-step plan to a safest state does not raise the
        # risk priority, filtering by monotonicity must leave at least one plan
        for model in (r2_model, r3_model, r2_reduced):
            for start in model.sorted_states():
                plans = plan_mitigations(model, start)
                if not plans:
                    continue
                direct_ok = any(
                    len(p.path) == 1 and is_mitigation_monotonous(model, p)
                    for p in plans
                )
                surviving = [
                    p for p in plans if is_mitigation_monotonous(model, p)
                ]
                if direct_ok:
                    assert surviving

    def test_synthetic_rise_is_flagged(self, r2_model):
        # under collapsed thresholds the start is fatal and the target
        # marginal, so the fall still counts as monotonous
        al = r2_model.state_named("A:e,L:e")
        plan = plan_mitigations(r2_model, al)[0]
        tight = BandThresholds(l_below=1e-9, h_at_least=1e-8)
        # with everything in the high band, AL is fatal and the target marginal
        assert is_mitigation_monotonous(with_bands(r2_model, tight), plan)
