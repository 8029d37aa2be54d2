from __future__ import annotations

import json
import tracemalloc
from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from riskstruct import (
    Action,
    ActionClass,
    Catalog,
    CatalogInvalid,
    EndangermentRule,
    HazardId,
    HazardPhaseModel,
    IllegalPhaseTransition,
    MishapRule,
    MitigationRule,
    ModelOptions,
    OperationalSituation,
    OrderClass,
    Phase,
    PhaseGuard,
    RiskModelError,
    RiskState,
    Severity,
    classify_by_order,
    construct_rs,
    embed_state,
    full_state_space_size,
    legal_phase_step,
    mitigation_equiv,
    model_to_json,
    verify_complete,
)
from riskstruct.catalogs import catalog_path
from riskstruct.construct import SWEEPS
from riskstruct.serialize import catalog_from_dict

from helpers import assert_matches_oracle, chain_catalog, random_catalog, random_rule_catalog

# The eleven expected transitions of the second-increment scenario, plus
# the mishap edge, frozen as (source, action, target, pr, cs).
R2_EXPECTED_TRANSITIONS = {
    ("A:0,L:0", "f_A", "A:e,L:0", 0.01, None),
    ("A:0,L:0", "f_L", "A:0,L:e", 0.02, None),
    ("A:0,L:e", "f_A", "A:e,L:e", 0.01, None),
    ("A:0,L:e", "m1_L", "A:0,L:m1", 0.99, 9),
    ("A:0,L:m1", "f_A", "A:e,L:m1", 0.01, None),
    ("A:e,L:0", "f_L", "A:e,L:e", 0.02, None),
    ("A:e,L:0", "m1_A", "A:m1,L:0", 0.99, 10),
    ("A:e,L:0", "m3_A", "A:m3,L:0", 0.5, 3),
    ("A:e,L:e", "m2_L", "A:m1,L:m2", 0.1, 3),
    ("A:m1,L:0", "f_L", "A:m1,L:e", 0.02, None),
    ("A:m1,L:0", "m2_A", "A:m2,L:0", 0.97, 5),
    ("A:e,L:e", "em_AL", "A:em,L:em", 0.5, None),
}

R2_EXPECTED_STATES = {
    "A:0,L:0",
    "A:e,L:0",
    "A:m1,L:0",
    "A:m2,L:0",
    "A:m3,L:0",
    "A:0,L:e",
    "A:0,L:m1",
    "A:e,L:e",
    "A:m1,L:e",
    "A:e,L:m1",
    "A:m1,L:m2",
    "A:em,L:em",
}

R3_ADDED_STATES = {
    "A:0,L:0,R:e",
    "A:0,L:e,R:e",
    "A:0,L:m1,R:e",
    "A:e,L:0,R:e",
    "A:e,L:e,R:e",
    "A:e,L:m1,R:e",
    "A:m1,L:0,R:e",
    "A:m1,L:e,R:e",
    "A:m1,L:m2,R:e",
}


class TestGoldenConstruction:
    def test_r2_states_exact(self, r2_model):
        assert {s.name for s in r2_model.states} == R2_EXPECTED_STATES

    def test_r2_exactly_one_mishap(self, r2_model):
        mishaps = r2_model.mishap_states()
        assert len(mishaps) == 1
        assert r2_model.sv[next(iter(mishaps))] is Severity.FATAL

    def test_r2_transitions_exact(self, r2_model):
        got = {
            (t.source.name, t.action.name, t.target.name, t.pr, t.cs)
            for t in r2_model.transitions
        }
        assert got == R2_EXPECTED_TRANSITIONS

    def test_increment_two_reaches_eleven_states(self, r2_catalog):
        _, log = construct_rs(r2_catalog)
        by_key = {(r.increment, r.sweep): r for r in log.records}
        assert by_key[(2, "mitigation")].non_mishap_total == 11

    def test_r3_adds_exactly_the_new_states(self, r2_model, r3_model):
        embedded = {embed_state(s, r3_model.hazards).name for s in r2_model.states}
        got = {s.name for s in r3_model.states}
        assert got - embedded == R3_ADDED_STATES
        assert embedded <= got

    def test_r3_keeps_the_joint_handover_state(self, r3_model):
        r3_model.state_named("A:m1,L:m2,R:0")

    def test_weights_recorded_per_class(self, r2_model):
        for t in r2_model.transitions:
            assert t.pr is not None
            if t.action.kind is ActionClass.MITIGATION:
                assert t.cs is not None
            else:
                assert t.cs is None

    def test_mishaps_are_final(self, r2_model, r3_model):
        for model in (r2_model, r3_model):
            sources = {t.source for t in model.transitions}
            assert all(s not in sources for s in model.mishap_states())

    def test_state_space_bound(self, r2_model):
        assert len(r2_model.states) <= full_state_space_size(r2_model.hazards)


def non_mishap_gains(catalog: Catalog, log) -> list[int]:
    """The non-mishap states each increment of ``log`` stored, the catalog's
    initial states counted before the first increment.

    Construction terminates because each gain but the last is positive and
    the last is 0: an increment follows only one that stored a non-mishap
    state.
    """
    totals = [len(catalog.initial_states)]
    totals += [r.non_mishap_total for r in log.records if r.sweep == SWEEPS[-1]]
    return [after - before for before, after in zip(totals, totals[1:])]


class TestConstructionContract:
    def test_deterministic(self, r2_catalog):
        a, la = construct_rs(r2_catalog)
        b, lb = construct_rs(r2_catalog)
        assert a == b and la == lb

    def test_complete_fixed_point(self, r2_catalog, r3_catalog):
        for catalog in (r2_catalog, r3_catalog):
            model, _ = construct_rs(catalog)
            assert verify_complete(model, catalog)

    def test_empty_hazard_catalog(self):
        model, log = construct_rs(Catalog(hazards=()))
        assert len(model.states) == 1
        assert not model.transitions
        assert next(iter(model.states)).name == ""

    def test_classification_agrees_with_rule_classes(self, r2_model, r3_model):
        # Order-based classification matches the declaring rule class, with
        # the one documented exception: a move between two mitigated phases
        # is order-incomparable and lands in the same mitigation-equivalence
        # class instead.
        for model in (r2_model, r3_model):
            for t in model.transitions:
                order = classify_by_order(t.source, t.target)
                if t.action.kind is ActionClass.MITIGATION:
                    if order is OrderClass.NEITHER:
                        assert mitigation_equiv(t.source, t.target)
                    else:
                        assert order is OrderClass.MITIGATION
                else:
                    assert order is OrderClass.ENDANGERMENT

    def test_custom_initial_states(self, r2_catalog):
        situation = OperationalSituation(name="mid", initial=("A:e,L:0",))
        catalog = replace(r2_catalog, situation=situation)
        model, _ = construct_rs(catalog)
        names = {s.name for s in model.states}
        assert "A:e,L:0" in names
        assert "A:0,L:e" not in names  # nothing activates L alone from here
        assert "A:e,L:e" in names

    def test_declared_reactivation_and_self_loop(self):
        # reactivation from a mitigated phase and the active self-loop both
        # exist only when a rule spells them out
        hazards = (HazardPhaseModel(HazardId("A"), 1),)
        catalog = Catalog(
            hazards=hazards,
            endangerments=(
                EndangermentRule(name="f", activates=("A",), pr=0.2),
                EndangermentRule(
                    name="again",
                    activates=("A",),
                    pr=0.1,
                    from_phases=(Phase.mitigated(1),),
                ),
                EndangermentRule(
                    name="still",
                    activates=("A",),
                    pr=0.3,
                    from_phases=(Phase.active(),),
                ),
            ),
            mitigations=(
                MitigationRule(
                    name="m",
                    mitigates=(("A", Phase.mitigated(1)),),
                    pr=0.9,
                    cs=1,
                    guard=PhaseGuard.of({"A": (Phase.active(),)}),
                ),
            ),
        )
        model, _ = construct_rs(catalog)
        keys = {t.key() for t in model.transitions}
        assert ("A:0", "f", "A:e") in keys
        assert ("A:m1", "again", "A:e") in keys
        assert ("A:e", "still", "A:e") in keys  # declared self-loop

    def test_increments_only_grow(self, r2_catalog, r3_catalog):
        for catalog in (r2_catalog, r3_catalog):
            _, log = construct_rs(catalog)
            assert [r.sweep for r in log.records] == list(SWEEPS) * (
                len(log.records) // 2
            )
            totals = [(r.states_total, r.transitions_total) for r in log.records]
            assert totals == sorted(totals)
            gains = non_mishap_gains(catalog, log)
            assert [min(gain, 1) for gain in gains] == [1] * (len(gains) - 1) + [0]

    def test_transitions_share_the_stored_state_objects(self, r2_catalog, r3_catalog):
        rng = Random(5)
        for catalog in (r2_catalog, r3_catalog, *(random_catalog(rng) for _ in range(20))):
            model, _ = construct_rs(catalog)
            stored = {s: s for s in model.states}
            for t in model.transitions:
                assert t.source is stored[t.source]
                assert t.target is stored[t.target]
            assert all(s is stored[s] for s in (*model.initial, *model.sv))

    def test_states_over_other_hazards_are_rejected(self, r2_model, r3_catalog):
        with pytest.raises(RiskModelError, match="in declaration order") as err:
            verify_complete(r2_model, r3_catalog)
        assert "\n" not in str(err.value)
        # a model cannot hold a state over its own hazards in another order
        swapped = RiskState(tuple(reversed(next(iter(r2_model.initial)).entries)))
        with pytest.raises(ValueError, match="in declaration order") as err:
            replace(r2_model, states=r2_model.states | {swapped})
        assert "\n" not in str(err.value)

    def test_subset_cap_limits_joint_rules(self, r2_catalog):
        catalog = replace(
            r2_catalog, options=replace(r2_catalog.options, max_subset_size=1)
        )
        model, _ = construct_rs(catalog)
        # the joint mishap and the joint handover need a two-hazard subset
        names = {s.name for s in model.states}
        assert "A:em,L:em" not in names
        assert "A:m1,L:m2" not in names


class TestCatalogValidation:
    def test_undeclared_hazard_named_in_error(self):
        with pytest.raises(CatalogInvalid) as err:
            Catalog(
                hazards=(HazardPhaseModel(HazardId("A"), 1),),
                endangerments=(
                    EndangermentRule(name="f_X", activates=("X",), pr=0.1),
                ),
            )
        assert "'X'" in str(err.value)

    def test_target_phase_bounds(self):
        with pytest.raises(CatalogInvalid) as err:
            Catalog(
                hazards=(HazardPhaseModel(HazardId("A"), 1),),
                mitigations=(
                    MitigationRule(
                        name="m9",
                        mitigates=(("A", Phase.mitigated(9)),),
                        pr=0.5,
                        cs=1,
                    ),
                ),
            )
        assert "m9" in str(err.value)

    def test_guard_phase_bounds(self):
        with pytest.raises(CatalogInvalid):
            Catalog(
                hazards=(HazardPhaseModel(HazardId("A"), 1),),
                endangerments=(
                    EndangermentRule(
                        name="f_A",
                        activates=("A",),
                        pr=0.1,
                        guard=PhaseGuard.of({"A": (Phase.mitigated(5),)}),
                    ),
                ),
            )

    def test_conflicting_action_declarations(self):
        hazards = (HazardPhaseModel(HazardId("A"), 2),)
        with pytest.raises(CatalogInvalid) as err:
            Catalog(
                hazards=hazards,
                mitigations=(
                    MitigationRule(
                        name="m", mitigates=(("A", Phase.mitigated(1)),), pr=0.5, cs=1
                    ),
                    MitigationRule(
                        name="m", mitigates=(("A", Phase.mitigated(2)),), pr=0.5, cs=1
                    ),
                ),
            )
        assert "declared twice" in str(err.value)

    def test_probability_range(self):
        with pytest.raises(CatalogInvalid):
            Catalog(
                hazards=(HazardPhaseModel(HazardId("A"), 1),),
                endangerments=(EndangermentRule(name="f", activates=("A",), pr=1.5),),
            )

    def test_disabled_rules_make_their_actions_too(self):
        with pytest.raises(CatalogInvalid) as err:
            Catalog(
                hazards=(HazardPhaseModel(HazardId("A"), 1),),
                endangerments=(
                    EndangermentRule(name="f", activates=("A", "A"), pr=0.1, enabled=False),
                ),
                mitigations=(
                    MitigationRule(
                        name="m",
                        mitigates=(("A", Phase.active()),),
                        pr=0.5,
                        cs=1,
                        enabled=False,
                    ),
                ),
            )
        assert err.value.errors == [
            "endangerments[0] ('f'): action 'f' moves hazard 'A' twice",
            "mitigations[0] ('m'): action 'm' (mitigation) cannot target phase 'e' of hazard 'A'",
        ]

    def test_one_name_one_action(self):
        def rule(domains):
            return EndangermentRule(name="f", activates=("A",), pr=0.1, domains=domains)

        hazards = (HazardPhaseModel(HazardId("A"), 1),)
        # the same action, whatever the order of its domains
        Catalog(hazards, endangerments=(rule(("veh", "drv")), rule(("drv", "veh"))))
        with pytest.raises(CatalogInvalid) as err:
            Catalog(hazards, endangerments=(rule(("veh",)), rule(("drv",))))
        assert err.value.errors == [
            "endangerments[1] ('f'): action 'f' declared twice with different class, "
            "effect, or domains"
        ]

    def test_a_copy_is_checked_again(self, r2_catalog):
        with pytest.raises(CatalogInvalid) as err:
            replace(r2_catalog, features=None)
        assert err.value.errors == [
            "options.region_policy: 'handover' needs a feature universe "
            "with at least one fallback feature"
        ]
        catalog = replace(r2_catalog, situation=OperationalSituation(initial=("A:e,L:0",)))
        assert [s.name for s in catalog.initial_states] == ["A:e,L:0"]
        assert [s.name for s in r2_catalog.initial_states] == ["A:0,L:0"]
        assert catalog.actions == r2_catalog.actions == tuple(
            Action(rule.name, rule.kind, rule.effect(), rule.domains)
            for _, rule in r2_catalog.rules()
        )

    @pytest.mark.parametrize("cs, kind", [(0.5, "float"), (True, "bool")])
    def test_cost_is_an_integer(self, r2_catalog, cs, kind):
        # a model file holds an integer cost, so no other cost is built
        first, *rest = r2_catalog.mitigations
        with pytest.raises(CatalogInvalid) as err:
            replace(r2_catalog, mitigations=(replace(first, cs=cs), *rest))
        assert err.value.errors == [
            f"mitigations[0] ({first.name!r}): cs must be an integer, got {kind}"
        ]

    def test_unknown_region_policy(self, r2_catalog):
        # a model with this policy could not be read back, so none is made
        message = "unknown region policy 'bogus'; pick one of no_active, handover"
        with pytest.raises(ValueError) as err:
            ModelOptions(region_policy="bogus")
        assert str(err.value) == message
        with pytest.raises(ValueError):
            replace(r2_catalog.options, region_policy="bogus")
        data = json.loads(catalog_path("tunnel-exit-r2").read_text())
        data["options"]["region_policy"] = "bogus"
        with pytest.raises(CatalogInvalid) as err:
            catalog_from_dict(data)
        assert err.value.errors == [f"options.region_policy: {message}"]

    def test_cost_follows_the_phases_in_use(self, r2_catalog, r2_model):
        # the table of a hazard's 10**9 + 3 phases could not be built
        wide = replace(r2_catalog.hazards[0], n_mitigations=10**9)
        model, _ = construct_rs(replace(r2_catalog, hazards=(wide, *r2_catalog.hazards[1:])))
        assert {s.name for s in model.states} == {s.name for s in r2_model.states}
        assert {t.key() for t in model.transitions} == {t.key() for t in r2_model.transitions}


class TestRandomCatalogs:
    def test_construction_properties(self):
        rng = Random(20_25)
        for _ in range(40):
            catalog = random_catalog(rng)
            model, log = construct_rs(catalog)
            bound = full_state_space_size(catalog.hazards)
            assert len(model.states) <= bound
            gains = non_mishap_gains(catalog, log)
            assert [min(gain, 1) for gain in gains] == [1] * (len(gains) - 1) + [0]
            assert verify_complete(model, catalog)
            # endangerments strictly descend, mitigations strictly ascend
            for t in model.transitions:
                order = classify_by_order(t.source, t.target)
                if t.action.kind is ActionClass.MITIGATION:
                    assert order is OrderClass.MITIGATION
                else:
                    assert order is OrderClass.ENDANGERMENT
            # pruning soundness: everything reachable from the initial region
            reachable = set(model.initial)
            frontier = list(model.initial)
            adjacency = model.outgoing()
            while frontier:
                s = frontier.pop()
                for t in adjacency[s]:
                    if t.target not in reachable:
                        reachable.add(t.target)
                        frontier.append(t.target)
            assert reachable == set(model.states)

    def test_rebuild_is_identical(self):
        rng = Random(77)
        for _ in range(10):
            catalog = random_catalog(rng)
            assert construct_rs(catalog) == construct_rs(catalog)


def with_inert_rules(catalog: Catalog, rng: Random) -> Catalog:
    """``catalog`` with a disabled copy of a random rule of each kind, or of
    a made-up rule where the kind has none, under a new name and at a random
    place in its list."""
    h = catalog.hazards[0].id
    made_up = {
        "endangerments": EndangermentRule("x", (h,), pr=0.5),
        "mishaps": MishapRule("x", (h,), (h,), pr=0.5, sv=Severity.MARGINAL),
        "mitigations": MitigationRule("x", ((h, Phase.mitigated(1)),), pr=0.5, cs=1),
    }
    changes = {}
    for section, default in made_up.items():
        rules = list(getattr(catalog, section))
        rule = rng.choice(rules) if rules else default
        rules.insert(
            rng.randint(0, len(rules)), replace(rule, name=f"inert_{section}", enabled=False)
        )
        changes[section] = tuple(rules)
    return replace(catalog, **changes)


class TestInertRules:
    """A disabled rule, of any kind and at any place, changes neither the
    model file nor the build log."""

    @staticmethod
    def _assert_inert(catalog: Catalog, rng: Random) -> None:
        model, log = construct_rs(catalog)
        other, other_log = construct_rs(with_inert_rules(catalog, rng))
        assert other_log == log
        assert model_to_json(other, other_log) == model_to_json(model, log)

    @pytest.mark.parametrize("seed", range(3))
    def test_bundled_catalogs(self, r2_catalog, r3_catalog, seed):
        for catalog in (r2_catalog, r3_catalog):
            self._assert_inert(catalog, Random(seed))

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_rule_catalogs(self, seed):
        rng = Random(seed)
        self._assert_inert(random_rule_catalog(rng), rng)


class TestConstructionOracle:
    def test_tunnel_catalogs(self, r2_catalog, r3_catalog, r2_variant_catalog):
        for catalog in (r2_catalog, r3_catalog, r2_variant_catalog):
            assert_matches_oracle(catalog)

    def test_a_wide_catalog_costs_what_its_rules_cost(self):
        # the rules are ordered, not the 2**16 - 1 hazard subsets
        n = 16
        catalog = Catalog(
            hazards=tuple(HazardPhaseModel(HazardId(f"H{i}"), 1) for i in range(n)),
            endangerments=(EndangermentRule(name="f", activates=("H0",), pr=0.1),),
            mitigations=(
                MitigationRule(name="m", mitigates=(("H0", Phase.mitigated(1)),), pr=0.9, cs=1),
            ),
            options=ModelOptions(max_subset_size=n),
        )
        tracemalloc.start()
        try:
            model, _ = construct_rs(catalog)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert len(model.states) == 3
        assert_matches_oracle(catalog)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_rule_catalogs(self, seed):
        assert_matches_oracle(random_rule_catalog(Random(seed)))

    def test_random_catalogs(self):
        rng = Random(31)
        for _ in range(20):
            assert_matches_oracle(random_catalog(rng))


def assert_edges_legal(catalog):
    """Every built edge moves each hazard whose phase changes along an edge
    of the phase graph for its action's class."""
    model, _ = construct_rs(catalog)
    for t in model.transitions:
        for (hid, before), (_, after) in zip(t.source.entries, t.target.entries):
            if before != after:
                assert legal_phase_step(before, t.action.kind, after), (t.key(), hid)


class TestEdgeLegality:
    """Construction checks phase legality once per rule, not per edge; the
    edges it builds are checked here one by one."""

    def test_tunnel_catalogs(self, r2_catalog, r3_catalog, r2_variant_catalog):
        for catalog in (r2_catalog, r3_catalog, r2_variant_catalog):
            assert_edges_legal(catalog)

    def test_chain_catalog(self):
        assert_edges_legal(catalog_from_dict(chain_catalog(4)))

    def test_a_copy_of_a_built_edge_is_checked(self, r2_catalog):
        # construction skips the per-edge check, but a copy with another
        # target is checked against the phase graph again
        model, _ = construct_rs(r2_catalog)
        edge = next(t for t in model.transitions if t.action.kind is ActionClass.MITIGATION)
        with pytest.raises(IllegalPhaseTransition):
            replace(edge, target=edge.source.with_phases({edge.source.hazard_ids[0]: Phase.mishap()}))

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_rule_catalogs(self, seed):
        assert_edges_legal(random_rule_catalog(Random(seed)))
