from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from riskstruct import (
    Action,
    ActionClass,
    Catalog,
    DropRule,
    HazardId,
    HazardPhaseModel,
    MishapRule,
    Phase,
    PhaseGuard,
    Region,
    RiskModelError,
    RiskState,
    RiskStructure,
    Severity,
    Transition,
    assign_regions,
    collapse_safe_chains,
    construct_rs,
    degradation_equiv,
    drop_irrelevant,
    feature_equiv,
    hazard_equiv,
    is_mishap,
    mishap_equiv,
    mitigation_equiv,
    parse_state,
    quotient,
    risk_priority,
)
from riskstruct import reduce as reduce_module
from riskstruct.catalogs import catalog_path
from riskstruct.serialize import load_drop_rules, load_model, save_model

from helpers import (
    brute_force_collapse,
    brute_force_maxima,
    brute_force_reach,
    random_shared_name_structure,
    random_structure,
)

# The reduced second-increment model: ten scenario states plus the mishap,
# and the twelve edges that survive the documented drops.
REDUCED_EXPECTED_EDGES = {
    ("A:0,L:0", "f_A", "A:e,L:0"),
    ("A:0,L:0", "f_L", "A:0,L:e"),
    ("A:0,L:e", "f_A", "A:e,L:e"),
    ("A:0,L:e", "m1_L", "A:0,L:m1"),
    ("A:0,L:m1", "f_A", "A:e,L:m1"),
    ("A:e,L:0", "f_L", "A:e,L:e"),
    ("A:e,L:0", "m1_A", "A:m1,L:0"),
    ("A:e,L:0", "m3_A", "A:m2,L:0|A:m3,L:0"),
    ("A:e,L:e", "em_AL", "A:em,L:em"),
    ("A:e,L:e", "m2_L", "A:m1,L:m2"),
    ("A:m1,L:0", "f_L", "A:m1,L:e"),
    ("A:m1,L:0", "m2_A", "A:m2,L:0|A:m3,L:0"),
}


def assert_classes_follow(model, equiv, related):
    """``quotient(model, equiv)`` puts two states in one class exactly when
    ``related`` holds, the mishap phases agree and the regions are equal;
    the classes are read from the merged states' ``|``-joined labels.  Each
    class is represented by its label-least member among those the
    all-pairs scan finds maximal, and labelled by its sorted member labels."""
    reduced = quotient(model, equiv)
    rep_of = {}
    for rep in reduced.states:
        members = [model.state_named(name) for name in reduced.label(rep).split("|")]
        for s in members:
            rep_of[s] = rep
        assert rep == min(brute_force_maxima(members), key=model.label)
        assert reduced.label(rep) == "|".join(sorted(map(model.label, members)))
    assert rep_of.keys() == model.states
    regions = assign_regions(model)
    for s, t in itertools.combinations(model.sorted_states(), 2):
        expected = related(s, t) and mishap_equiv(s, t) and regions[s] is regions[t]
        assert (rep_of[s] == rep_of[t]) == expected, (equiv, s.name, t.name)


class TestQuotient:
    def test_merges_exactly_the_handover_pair(self, r2_model, r2_reduced):
        merged_labels = {
            r2_reduced.label(s) for s in r2_reduced.states
        } - {s.name for s in r2_model.states}
        assert merged_labels == {"A:m2,L:0|A:m3,L:0"}
        assert len(r2_reduced.states) == len(r2_model.states) - 1

    def test_representative_keeps_maximal_phases(self, r2_reduced):
        merged = r2_reduced.state_named("A:m2,L:0|A:m3,L:0")
        assert merged.name == "A:m2,L:0"

    def test_retargets_transitions(self, r2_reduced):
        got = {
            (r2_reduced.label(t.source), t.action.name, r2_reduced.label(t.target))
            for t in r2_reduced.transitions
        }
        assert got == REDUCED_EXPECTED_EDGES

    def test_identity_when_nothing_equivalent(self):
        catalog = Catalog(
            hazards=(HazardPhaseModel(HazardId("A"), 1),),
            endangerments=(),
        )
        model, _ = construct_rs(catalog)
        assert quotient(model, "m") == model

    def test_equal_rp_guard_blocks_unequal_merges(self, r2_catalog):
        # give the dead-end state its own route to a second mishap so its
        # risk priority rises above its degradation-equivalent partner
        extra = MishapRule(
            name="em_L",
            requires=("L",),
            sets=("L",),
            pr=0.5,
            sv=Severity.FATAL,
            guard=PhaseGuard.of({"A": (Phase.mitigated(1),)}),
        )
        catalog = Catalog(
            hazards=r2_catalog.hazards,
            endangerments=r2_catalog.endangerments,
            mishaps=r2_catalog.mishaps + (extra,),
            mitigations=r2_catalog.mitigations,
            features=r2_catalog.features,
            situation=r2_catalog.situation,
            options=r2_catalog.options,
        )
        model, _ = construct_rs(catalog)
        a1 = model.state_named("A:m1,L:0")
        a1l = model.state_named("A:m1,L:e")
        assert risk_priority(model, a1) is not risk_priority(model, a1l)
        unguarded = quotient(model, "d")
        guarded = quotient(model, "d", require_equal_rp=True)
        assert unguarded.label(unguarded.state_named("A:m1,L:0")).count("|") == 1
        # with the guard the two states stay apart
        labels = {guarded.label(s) for s in guarded.states}
        assert "A:m1,L:0" in labels and "A:m1,L:e" in labels

    def test_never_merges_across_mishap_patterns(self, r2_model, r3_model):
        from riskstruct import PhaseKind

        for model in (r2_model, r3_model):
            for equiv in ("h", "hm", "m", "f", "d"):
                reduced = quotient(model, equiv)
                for s in reduced.states:
                    members = [
                        model.state_named(m) for m in reduced.label(s).split("|")
                    ]
                    patterns = {
                        tuple(
                            p.kind is PhaseKind.MISHAP for _, p in m.entries
                        )
                        for m in members
                    }
                    assert len(patterns) == 1

    def test_mishap_pattern_preserved_even_with_equal_profiles(self):
        # two mishap states with identical (baseline) feature profiles must
        # not merge under feature equivalence: their mishap patterns differ
        from riskstruct import state_from_phases
        from riskstruct.order import FeatureBaseline, FeatureModel

        hazards = (
            HazardPhaseModel(HazardId("A"), 1),
            HazardPhaseModel(HazardId("B"), 1),
        )
        base = state_from_phases(
            hazards, {"A": Phase.inactive(), "B": Phase.inactive()}
        )
        active = state_from_phases(
            hazards, {"A": Phase.active(), "B": Phase.active()}
        )
        mis_a = state_from_phases(
            hazards, {"A": Phase.mishap(), "B": Phase.active()}
        )
        mis_b = state_from_phases(
            hazards, {"A": Phase.active(), "B": Phase.mishap()}
        )
        f = Action("f", ActionClass.ENDANGERMENT, (("A", Phase.active()), ("B", Phase.active())))
        xa = Action("xa", ActionClass.MISHAP_ACTION, (("A", Phase.mishap()),))
        xb = Action("xb", ActionClass.MISHAP_ACTION, (("B", Phase.mishap()),))
        model = RiskStructure(
            hazards=hazards,
            states=frozenset({base, active, mis_a, mis_b}),
            transitions=(
                Transition(base, f, active, pr=0.5),
                Transition(active, xa, mis_a, pr=0.5),
                Transition(active, xb, mis_b, pr=0.5),
            ),
            initial=frozenset({base}),
            sv={mis_a: Severity.FATAL, mis_b: Severity.CRITICAL},
            features=FeatureModel(
                universe=(FeatureBaseline("F"),), effects=(), priority=("A", "B")
            ),
        )
        reduced = quotient(model, "f")
        assert len(reduced.states) == len(model.states)

    def test_feature_quotient_requires_features(self):
        catalog = Catalog(hazards=(HazardPhaseModel(HazardId("A"), 1),))
        model, _ = construct_rs(catalog)
        with pytest.raises(Exception, match="feature"):
            quotient(model, "f")

    @pytest.mark.parametrize("labels, equivalence, line", [
        ({}, "x", "unknown equivalence 'x'; pick one of ('h', 'hm', 'm', 'f', 'd')"),
        # the merged A:m2,L:0 and A:m3,L:0 would be labelled P|Q, as A:e,L:0 is
        (
            {"A:m2,L:0": "P", "A:m3,L:0": "Q", "A:e,L:0": "P|Q"},
            "m",
            "quotient: label 'P|Q' already names another state",
        ),
    ], ids=["unknown-equivalence", "joined-label-taken"])
    def test_refused_with_one_line(self, r2_model, labels, equivalence, line):
        named = {r2_model.state_named(name): text for name, text in labels.items()}
        with pytest.raises(RiskModelError) as err:
            quotient(replace(r2_model, labels=named), equivalence)
        assert str(err.value) == line

    def test_mishaps_never_lumped_with_near_mishaps(self, r2_model, monkeypatch):
        # even under an adversarial region assignment, the mishap-pattern
        # refinement keeps the near-mishap state apart from the mishap
        bogus = {s: Region.SAFE for s in r2_model.states}
        monkeypatch.setattr(reduce_module, "assign_regions", lambda model: bogus)
        reduced = quotient(r2_model, "m")
        labels = {reduced.label(s) for s in reduced.states}
        assert "A:em,L:em" in labels
        assert not any("A:em,L:em|" in l or "|A:em,L:em" in l for l in labels)

    def test_state_count_never_increases(self, r2_model, r3_model):
        for model in (r2_model, r3_model):
            for equiv in ("h", "hm", "m", "f", "d"):
                assert len(quotient(model, equiv).states) <= len(model.states)

    def test_idempotent_on_goldens(self, r2_model, r3_model):
        for model in (r2_model, r3_model):
            for equiv in ("h", "hm", "m", "f", "d"):
                once = quotient(model, equiv)
                assert quotient(once, equiv) == once

    def test_idempotent_on_random_structures(self):
        rng = Random(41)
        for _ in range(15):
            model = random_structure(rng)
            for equiv in ("h", "hm", "m"):
                once = quotient(model, equiv)
                assert quotient(once, equiv) == once

    def test_forward_mishap_reachability_preserved(self):
        rng = Random(43)
        for _ in range(15):
            model = random_structure(rng)
            for equiv in ("h", "hm", "m"):
                reduced = quotient(model, equiv)
                rep_of = {}
                for rep in reduced.states:
                    for member in reduced.label(rep).split("|"):
                        rep_of[member] = rep
                for s in model.states:
                    if brute_force_reach(model, s) & model.mishap_states():
                        closure = brute_force_reach(reduced, rep_of[s.name])
                        assert closure & reduced.mishap_states()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_classes_are_the_equivalence_classes(self, seed):
        model = random_structure(Random(seed))
        for equiv, related in (
            ("h", hazard_equiv),
            ("hm", mishap_equiv),
            ("m", mitigation_equiv),
        ):
            assert_classes_follow(model, equiv, related)

    def test_feature_classes_are_the_equivalence_classes(self, r2_model, r3_model):
        for model in (r2_model, r3_model):
            for equiv, related in (("f", feature_equiv), ("d", degradation_equiv)):
                assert_classes_follow(
                    model, equiv, lambda s, t: related(s, t, model.features)
                )

    def test_merged_parallel_edges_keep_max_pr_min_cs(self):
        hazards = (HazardPhaseModel(HazardId("A"), 2),)
        e, m1, m2, zero = (
            Phase.active(),
            Phase.mitigated(1),
            Phase.mitigated(2),
            Phase.inactive(),
        )
        from riskstruct import state_from_phases

        active = state_from_phases(hazards, {"A": e})
        mit1 = state_from_phases(hazards, {"A": m1})
        mit2 = state_from_phases(hazards, {"A": m2})
        # one action labels both edges: a model has one action per name
        act = Action("m", ActionClass.MITIGATION)
        model = RiskStructure(
            hazards=hazards,
            states=frozenset({active, mit1, mit2}),
            transitions=(
                Transition(active, act, mit1, pr=0.5, cs=7),
                Transition(active, act, mit2, pr=0.9, cs=3),
            ),
            initial=frozenset({active}),
        )
        reduced = quotient(model, "m")
        (merged_edge,) = reduced.transitions
        assert merged_edge.pr == 0.9
        assert merged_edge.cs == 3


class TestDerivedActions:
    """A model's actions are those of its transitions: each once, by name."""

    @pytest.mark.parametrize("fixture", ["r2_model", "r3_model"])
    def test_actions_of_reduced_models(self, fixture, request):
        model = request.getfixturevalue(fixture)
        derived = (
            model,
            quotient(model, "m"),
            quotient(model, "m", require_equal_rp=True),
            drop_irrelevant(model, (DropRule(action="f_L"),)),
            collapse_safe_chains(model),
            replace(model, transitions=model.transitions[:5]),
        )
        for m in derived:
            used = {t.action for t in m.transitions}
            assert set(m.actions) == used
            names = [a.name for a in m.actions]
            assert names == sorted({a.name for a in used})
            assert m.actions is m.actions


class TestDropRules:
    def test_documented_drops_reproduce_reduced_edge_set(self, r2_variant_model):
        q = quotient(r2_variant_model, "m")
        rules = load_drop_rules(str(catalog_path("tunnel-exit-r2-drops")))
        reduced = drop_irrelevant(q, rules)
        got = {
            (reduced.label(t.source), t.action.name, reduced.label(t.target))
            for t in reduced.transitions
        }
        assert got == REDUCED_EXPECTED_EDGES
        assert len(reduced.states) == 11

    def test_empty_rule_set_is_identity(self, r2_reduced):
        assert drop_irrelevant(r2_reduced, ()) == r2_reduced

    def test_non_matching_rule_is_identity(self, r2_reduced):
        assert (
            drop_irrelevant(r2_reduced, (DropRule(action="no_such_action"),))
            == r2_reduced
        )

    def test_region_constrained_drop(self, r2_variant_model):
        # self-loops sit on safe states only; the hazardous f_L edges survive
        rules = (DropRule(action="f_L", source_region=Region.SAFE, self_loop=True),)
        reduced = drop_irrelevant(r2_variant_model, rules)
        remaining = [
            t for t in reduced.transitions if t.action.name == "f_L"
        ]
        assert all(t.source != t.target for t in remaining)
        assert len(remaining) == 3  # from the initial, fault, and degraded states

    def test_dropping_prunes_unreachable(self, r2_model):
        rules = (DropRule(action="f_L"), DropRule(action="f_A"))
        reduced = drop_irrelevant(r2_model, rules)
        # without endangerments only the initial state remains
        assert {s.name for s in reduced.states} == {"A:0,L:0"}


class TestCollapseChains:
    def _chain_model(self):
        hazards = (HazardPhaseModel(HazardId("A"), 2),)
        from riskstruct import state_from_phases

        x = state_from_phases(hazards, {"A": Phase.mitigated(1)})
        y = state_from_phases(hazards, {"A": Phase.mitigated(2)})
        z = state_from_phases(hazards, {"A": Phase.inactive()})
        a = Action("step1", ActionClass.MITIGATION, (("A", Phase.mitigated(2)),))
        b = Action("step2", ActionClass.MITIGATION, (("A", Phase.inactive()),))
        return RiskStructure(
            hazards=hazards,
            states=frozenset({x, y, z}),
            transitions=(
                Transition(x, a, y, pr=0.8, cs=2),
                Transition(y, b, z, pr=0.5, cs=3),
            ),
            initial=frozenset({x}),
        )

    def test_collapses_pass_through_state(self):
        model = self._chain_model()
        collapsed = collapse_safe_chains(model)
        assert len(collapsed.states) == 2
        (composite,) = collapsed.transitions
        assert composite.action.name == "step1;step2"
        assert composite.pr == pytest.approx(0.4)
        assert composite.cs == 5

    def test_idempotent(self):
        model = self._chain_model()
        once = collapse_safe_chains(model)
        assert collapse_safe_chains(once) == once

    def test_identity_without_chains(self, r2_reduced):
        # the degraded state keeps an endangerment exit, so nothing collapses
        assert collapse_safe_chains(r2_reduced) == r2_reduced

    def test_identity_on_golden(self, r2_model):
        assert collapse_safe_chains(r2_model) == r2_model

    def test_matches_the_definition_on_random_structures(self):
        # the definition collapses the label-least pass-through state of
        # the model as it stands until none is left; action names with ';'
        # let composites meet declared actions of their name
        counts = Counter()
        for seed in range(300):
            rng = Random(seed)
            model = random_structure(rng, 20)
            shared = random_shared_name_structure(Random(seed))
            names = {n: Action(n, ActionClass.MITIGATION, ()) for n in ("a", "a;a", "a;b", "b")}
            renamed = replace(model, transitions=tuple(
                replace(t, action=names[rng.choice(sorted(names))])
                if t.action.kind is ActionClass.MITIGATION else t
                for t in model.transitions
            ))
            for case in (
                model, quotient(model, "m"), quotient(model, "h"), shared, renamed
            ):
                try:
                    expected = brute_force_collapse(case)
                except RiskModelError as exc:
                    with pytest.raises(type(exc)) as raised:
                        collapse_safe_chains(case)
                    assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
                    counts["refused"] += 1
                    continue
                collapsed = collapse_safe_chains(case)
                assert collapsed == expected
                assert collapsed.actions == expected.actions
                counts[len(collapsed.states) < len(case.states)] += 1
        assert counts[True] >= 50 and counts["refused"] >= 3, counts

    def test_a_long_chain_collapses_in_one_pass(self):
        # each collapse leaves every other state as it was, so one pass in
        # label order collapses them all
        n = 2000
        hazards = (HazardPhaseModel(HazardId("A"), n),)
        states = [RiskState((("A", Phase.active()),))] + [
            RiskState((("A", Phase.mitigated(i)),)) for i in range(1, n + 1)
        ]
        model = RiskStructure(
            hazards=hazards,
            states=frozenset(states),
            transitions=tuple(sorted(
                (
                    Transition(
                        u, Action(f"m{i}", ActionClass.MITIGATION, v.entries), v,
                        pr=0.5, cs=1,
                    )
                    for i, (u, v) in enumerate(zip(states, states[1:]), 1)
                ),
                key=lambda t: t.key(),
            )),
            initial=frozenset(states[:1]),
        )
        start = time.perf_counter()
        collapsed = collapse_safe_chains(model)
        elapsed = time.perf_counter() - start
        # the active state is hazardous and the mitigated ones safe, so the
        # first mitigation stays on its own
        assert sorted(s.name for s in collapsed.states) == ["A:e", "A:m1", f"A:m{n}"]
        first, rest = collapsed.transitions
        assert first.action.name == "m1"
        assert rest.action.name == ";".join(f"m{i}" for i in range(2, n + 1))
        assert (rest.cs, rest.action.effect) == (n - 1, (("A", Phase.mitigated(n)),))
        assert elapsed < 1.0

    def test_a_composite_is_made_as_a_loaded_edge_is(self, tmp_path):
        # A:0,B:e -a-> A:m1,B:e -b-> A:m2,B:e: a model file that every
        # command reads, since the loader does not check edges against the
        # phase graph; nor does collapse check the composite A:0 -> A:m2
        hazards = (HazardPhaseModel(HazardId("A"), 2), HazardPhaseModel(HazardId("B"), 1))
        s = [parse_state(n, hazards) for n in ("A:0,B:e", "A:m1,B:e", "A:m2,B:e")]

        def edge(i: int, name: str) -> Transition:
            action = Action(name, ActionClass.MITIGATION, (("A", s[i + 1].phase("A")),))
            return Transition(s[i], action, s[i + 1], 0.5, 1, checked=False)

        path = tmp_path / "chain.json"
        save_model(str(path), RiskStructure(
            hazards=hazards, states=frozenset(s), transitions=(edge(0, "a"), edge(1, "b")),
            initial=frozenset(s[:1]),
        ))
        model, _ = load_model(str(path))
        collapsed = collapse_safe_chains(model)
        assert collapsed == brute_force_collapse(model)
        assert [(t.key(), t.pr, t.cs) for t in collapsed.transitions] == [
            (("A:0,B:e", "a;b", "A:m2,B:e"), 0.25, 2)
        ]

    def _parallel_model(self, declared: Action):
        # x -step1-> y -step2-> z, and an edge x -> z of the declared action
        model = self._chain_model()
        x, z = model.transitions[0].source, model.transitions[1].target
        return replace(model, transitions=tuple(sorted(
            model.transitions + (Transition(x, declared, z, pr=0.1, cs=1),),
            key=lambda t: t.key(),
        )))

    def test_refuses_a_composite_that_repeats_an_edge(self):
        model = self._parallel_model(
            Action("step1;step2", ActionClass.MITIGATION, (("A", Phase.inactive()),))
        )
        with pytest.raises(RiskModelError, match=(
            "^collapse: transition A:m1 -step1;step2-> A:0 is given twice$"
        )):
            collapse_safe_chains(model)

    @pytest.mark.parametrize("declared", [
        Action("step1;step2", ActionClass.MITIGATION, (("A", Phase.mitigated(2)),)),
        Action("step1;step2", ActionClass.MITIGATION, (("A", Phase.inactive()),), ("drv",)),
    ], ids=["effect", "domains"])
    def test_refuses_a_composite_that_names_another_action(self, declared):
        # the declared action labels a self-loop at the end of the chain,
        # so only the name clashes
        model = self._chain_model()
        z = model.transitions[-1].target
        model = replace(model, transitions=model.transitions + (Transition(z, declared, z),))
        with pytest.raises(RiskModelError, match=(
            "^collapse: two actions are named 'step1;step2'$"
        )):
            collapse_safe_chains(model)
