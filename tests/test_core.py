from __future__ import annotations

import copy
import dataclasses
import pickle
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from riskstruct import (
    Action,
    ActionClass,
    Catalog,
    CatalogInvalid,
    HazardId,
    HazardPhaseModel,
    IllegalPhaseTransition,
    MitigationRule,
    ModelOptions,
    Phase,
    PhaseKind,
    RiskState,
    Severity,
    Transition,
    analysis_table,
    apply_action,
    embed_state,
    full_state_space_size,
    is_mishap,
    legal_phase_step,
    parse_state,
    quotient,
    risk_priority,
    state_from_phases,
    state_parser,
)
from riskstruct.core import StateSyntaxError

from helpers import (
    brute_force_is_mishap,
    brute_force_parse_state,
    enumerate_tuple_space,
    random_states,
    random_structure,
)

AB = (
    HazardPhaseModel(HazardId("A"), 3),
    HazardPhaseModel(HazardId("L"), 4),
)


def st_phase(max_index: int = 4):
    return st.one_of(
        st.just(Phase.inactive()),
        st.just(Phase.active()),
        st.just(Phase.mishap()),
        st.integers(min_value=1, max_value=max_index).map(Phase.mitigated),
    )


class TestPhase:
    def test_render_parse_fixed_points(self):
        assert Phase.parse("0") is Phase.inactive()
        assert Phase.parse("e") is Phase.active()
        assert Phase.parse("em") is Phase.mishap()
        assert Phase.parse("m7") == Phase.mitigated(7)
        # shared objects, but phases still compare by value
        assert Phase(PhaseKind.ACTIVE) == Phase.active()

    @given(st_phase(max_index=9))
    def test_round_trip(self, phase):
        assert Phase.parse(phase.render()) == phase

    @pytest.mark.parametrize("bad", ["", "m0", "m", "x", "e m", "M1", "em1"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(StateSyntaxError):
            Phase.parse(bad)

    def test_mitigated_needs_positive_index(self):
        with pytest.raises(ValueError):
            Phase(PhaseKind.MITIGATED, 0)


class TestPhaseGraph:
    def test_phase_count(self):
        assert len(HazardPhaseModel(HazardId("h"), 1).phases()) == 4
        assert len(HazardPhaseModel(HazardId("h"), 4).phases()) == 7

    def test_legal_edges(self):
        e, m1, m2, zero, em = (
            Phase.active(),
            Phase.mitigated(1),
            Phase.mitigated(2),
            Phase.inactive(),
            Phase.mishap(),
        )
        E, M, X = (
            ActionClass.ENDANGERMENT,
            ActionClass.MITIGATION,
            ActionClass.MISHAP_ACTION,
        )
        assert legal_phase_step(zero, E, e)
        assert legal_phase_step(m1, E, e)
        assert legal_phase_step(e, E, e)
        assert legal_phase_step(e, M, m1)
        assert legal_phase_step(e, M, zero)
        assert legal_phase_step(m1, M, zero)
        assert legal_phase_step(m1, M, m2)
        assert legal_phase_step(e, X, em)
        # forbidden moves
        assert not legal_phase_step(zero, M, m1)
        assert not legal_phase_step(zero, X, em)
        assert not legal_phase_step(m1, X, em)
        assert not legal_phase_step(m1, M, m1)
        assert not legal_phase_step(e, E, zero)

    def test_mishap_phase_is_absorbing(self):
        em = Phase.mishap()
        for cls in ActionClass:
            for target in (Phase.inactive(), Phase.active(), Phase.mitigated(1)):
                assert not legal_phase_step(em, cls, target)

    def test_the_table_is_the_case_analysis(self):
        def by_cases(source, cls, target):
            sk, tk = source.kind, target.kind
            if cls is ActionClass.ENDANGERMENT:
                return tk is PhaseKind.ACTIVE and sk in (
                    PhaseKind.INACTIVE, PhaseKind.ACTIVE, PhaseKind.MITIGATED
                )
            if cls is ActionClass.MISHAP_ACTION:
                return sk is PhaseKind.ACTIVE and tk is PhaseKind.MISHAP
            if cls is ActionClass.MITIGATION:
                if sk is PhaseKind.ACTIVE:
                    return tk in (PhaseKind.MITIGATED, PhaseKind.INACTIVE)
                if sk is PhaseKind.MITIGATED:
                    if tk is PhaseKind.INACTIVE:
                        return True
                    return tk is PhaseKind.MITIGATED and source.index != target.index
            return False

        phases = [Phase.parse(text) for text in ("0", "e", "em", "m1", "m2")]
        for cls in ActionClass:
            for target in phases:
                for source in phases:
                    assert legal_phase_step(source, cls, target) is by_cases(
                        source, cls, target
                    ), (source, cls, target)
                # an action may target a phase that some step of its class
                # ends at
                if any(by_cases(source, cls, target) for source in phases):
                    Action("a", cls, (("A", target),))
                else:
                    with pytest.raises(ValueError, match="cannot target phase"):
                        Action("a", cls, (("A", target),))


class TestStateSpaceSize:
    def test_single_hazard(self):
        assert full_state_space_size([HazardPhaseModel(HazardId("h"), 1)]) == 4

    def test_two_hazards_matches_enumeration(self):
        assert full_state_space_size(AB) == len(enumerate_tuple_space(AB)) == 42

    def test_three_hazards_matches_enumeration(self):
        hazards = (
            HazardPhaseModel(HazardId("a"), 3),
            HazardPhaseModel(HazardId("b"), 4),
            HazardPhaseModel(HazardId("c"), 1),
        )
        assert full_state_space_size(hazards) == len(enumerate_tuple_space(hazards)) == 168

    def test_needs_a_hazard(self):
        with pytest.raises(ValueError):
            full_state_space_size([])


class TestRiskState:
    def test_canonical_name_order(self):
        s = state_from_phases(AB, {"L": Phase.active(), "A": Phase.mitigated(1)})
        assert s.name == "A:m1,L:e"

    def test_parse_accepts_any_order(self):
        assert parse_state("L:e,A:m1", AB).name == "A:m1,L:e"

    @given(
        st.tuples(st_phase(max_index=3), st_phase(max_index=4)),
    )
    def test_name_round_trip(self, phases):
        state = state_from_phases(AB, {"A": phases[0], "L": phases[1]})
        assert parse_state(state.name, AB) == state

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_identity_is_the_canonical_name(self, seed):
        rng = Random(seed)
        model = random_structure(rng)
        states = sorted(model.states, key=lambda s: s.name)
        states += random_states(rng, model.hazards, 8)
        # the same entries built from fresh, unshared phase objects
        states += [
            RiskState(tuple((h, Phase(p.kind, p.index)) for h, p in s.entries))
            for s in states[:4]
        ]
        for s in states:
            assert parse_state(s.name, model.hazards) == s
            assert s.hazard_ids == tuple(h for h, _ in s.entries)
            assert all(s.phase(h) == p for h, p in s.entries)
            assert s != s.name
            for t in states:
                same = s.entries == t.entries
                assert (s == t) is same
                assert (s != t) is not same
                assert (s.name == t.name) is same
                if same:
                    assert hash(s) == hash(t)

    @pytest.mark.parametrize(
        "bad",
        ["A:e", "A:e,L:e,R:0", "A:e,A:e", "A:m9,L:0", "A=e,L=0", "A:em1,L:0"],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(StateSyntaxError):
            parse_state(bad, AB)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_parser_matches_token_by_token_parse(self, data):
        ids = data.draw(st.lists(st.sampled_from("ALRXY"), max_size=4, unique=True))
        hazards = tuple(
            HazardPhaseModel(HazardId(h), data.draw(st.integers(1, 3))) for h in ids
        )
        phase_texts = ["0", "e", "em", "m1", "m2", "m3", "m4", "m0", "m01", "", "x"]
        token = st.tuples(
            st.sampled_from(list(ids) + ["Z", ""]),
            st.sampled_from([":", ":", "", "::"]),
            st.sampled_from(phase_texts),
        ).map("".join)
        # a canonical name, then edits of its tokens: permuted, duplicated,
        # dropped, replaced by arbitrary ones, or followed by a comma
        tokens = [f"{h.id}:{data.draw(st.sampled_from(h.phases())).render()}"
                  for h in hazards]
        edit = data.draw(
            st.sampled_from(["none", "permute", "duplicate", "drop", "replace", "comma"])
        )
        if edit == "permute":
            tokens = data.draw(st.permutations(tokens))
        elif edit == "duplicate" and tokens:
            tokens.append(data.draw(st.sampled_from(tokens)))
        elif edit == "drop" and tokens:
            tokens.pop(data.draw(st.integers(0, len(tokens) - 1)))
        elif edit == "replace":
            tokens = data.draw(st.lists(token, max_size=5))
        text = ",".join(tokens) + ("," if edit == "comma" else "")

        def outcome(parse):
            try:
                s = parse(text)
            except Exception as exc:  # the oracle's exception is the reference
                return type(exc), str(exc)
            return s.name, s.entries, s.hazard_ids, hash(s)

        expected = outcome(lambda t: brute_force_parse_state(t, hazards))
        parse = state_parser(hazards)
        assert outcome(parse) == expected
        # again, once the parser has learned the tokens of the name
        assert outcome(parse) == expected
        assert outcome(lambda t: parse_state(t, hazards)) == expected

    def test_a_parser_learns_the_mitigated_phases_it_meets(self):
        hazards = (HazardPhaseModel(HazardId("A"), 10**9), HazardPhaseModel(HazardId("L"), 2))
        parse = state_parser(hazards)
        for text in ("L:m2,A:m999999999", "A:m999999999,L:m2", "A:m999999999,L:m2"):
            assert parse(text) == brute_force_parse_state(text, hazards)
        for text in ("A:m1000000001,L:0", "A:0,L:m3", "L:m2,A:m0"):
            with pytest.raises(StateSyntaxError):
                parse(text)

    def test_embed_into_the_same_hazards_is_the_identity(self):
        s = parse_state("A:m1,L:e", AB)
        assert embed_state(s, AB) is s

    def test_empty_hazard_set(self):
        assert parse_state("", ()) == RiskState(())
        assert RiskState(()).name == ""

    def test_embed_fills_inactive(self):
        bigger = AB + (HazardPhaseModel(HazardId("R"), 1),)
        s = parse_state("A:m1,L:e", AB)
        assert embed_state(s, bigger).name == "A:m1,L:e,R:0"


class TestIsMishap:
    def test_all_inactive(self):
        assert not is_mishap(parse_state("A:0,L:0", AB))

    def test_mishap_component(self):
        assert is_mishap(parse_state("A:em,L:em", AB))
        assert is_mishap(parse_state("A:em,L:0", AB))

    def test_mitigated_is_not_mishap(self):
        assert not is_mishap(parse_state("A:m1,L:e", AB))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_name_test_matches_the_entries(self, seed):
        # ids that look like phase texts, and zero hazards
        rng = Random(seed)
        ids = rng.sample(["em", "xem", "e", "emx", "m1", "A"], rng.randint(0, 3))
        hazards = tuple(HazardPhaseModel(HazardId(h), rng.randint(1, 2)) for h in ids)
        for s in (*enumerate_tuple_space(hazards), *random_structure(rng).states):
            assert is_mishap(s) == brute_force_is_mishap(s), s.name


class TestApplyAction:
    def test_single_activation(self):
        act = Action("f_A", ActionClass.ENDANGERMENT, (("A", Phase.active()),))
        assert apply_action(parse_state("A:0,L:0", AB), act).name == "A:e,L:0"

    def test_joint_mitigation(self):
        act = Action(
            "m2_L",
            ActionClass.MITIGATION,
            (("A", Phase.mitigated(1)), ("L", Phase.mitigated(1))),
        )
        assert apply_action(parse_state("A:e,L:e", AB), act).name == "A:m1,L:m1"

    def test_illegal_mitigation_from_inactive(self):
        act = Action("m1_A", ActionClass.MITIGATION, (("A", Phase.mitigated(1)),))
        with pytest.raises(IllegalPhaseTransition):
            apply_action(parse_state("A:0,L:0", AB), act)

    def test_hazard_already_at_target_is_untouched(self):
        act = Action(
            "m3_L",
            ActionClass.MITIGATION,
            (("A", Phase.mitigated(1)), ("L", Phase.mitigated(2))),
        )
        assert apply_action(parse_state("A:m1,L:e", AB), act).name == "A:m1,L:m2"

    def test_action_class_constrains_targets(self):
        with pytest.raises(ValueError):
            Action("bad", ActionClass.ENDANGERMENT, (("A", Phase.mitigated(1)),))
        with pytest.raises(ValueError):
            Action("bad", ActionClass.MITIGATION, (("A", Phase.mishap()),))
        with pytest.raises(ValueError):
            Action("bad", ActionClass.MISHAP_ACTION, (("A", Phase.active()),))

    def test_a_hazard_moved_twice_is_refused(self):
        # phases have no order: the effect is sorted by hazard id alone
        effect = (("A", Phase.mitigated(1)), ("A", Phase.mitigated(2)))
        with pytest.raises(ValueError, match="^action 'a' moves hazard 'A' twice$"):
            Action("a", ActionClass.MITIGATION, effect)
        with pytest.raises(CatalogInvalid) as err:
            Catalog(hazards=AB, mitigations=(MitigationRule("a", effect, 0.5, 1),))
        assert err.value.errors == ["mitigations[0] ('a'): action 'a' moves hazard 'A' twice"]

    @pytest.mark.parametrize("name", ["a\tb", "a\nb", "a\r", "a\x1eb", "a\u2028b"])
    def test_a_name_of_more_than_one_field_is_refused(self, name):
        # a line of plan or diff output holds the name as one field
        with pytest.raises(ValueError) as err:
            Action(name, ActionClass.ORDINARY)
        assert str(err.value) == f"action name {name!r} is not one line without a tab"


class TestTransition:
    def test_validates_per_hazard_legality(self):
        act = Action("m1_A", ActionClass.MITIGATION, (("A", Phase.mitigated(1)),))
        src = parse_state("A:e,L:0", AB)
        with pytest.raises(IllegalPhaseTransition):
            # L sneaks from inactive to active, which no mitigation may do
            Transition(src, act, parse_state("A:m1,L:e", AB), pr=0.1)

    def test_untouched_hazards_pass(self):
        act = Action("f_A", ActionClass.ENDANGERMENT, (("A", Phase.active()),))
        t = Transition(
            parse_state("A:0,L:m1", AB), act, parse_state("A:e,L:m1", AB), pr=0.1
        )
        assert t.key() == ("A:0,L:m1", "f_A", "A:e,L:m1")

    def test_weight_bounds(self):
        act = Action("f_A", ActionClass.ENDANGERMENT, (("A", Phase.active()),))
        src, dst = parse_state("A:0,L:0", AB), parse_state("A:e,L:0", AB)
        with pytest.raises(ValueError):
            Transition(src, act, dst, pr=1.5)
        with pytest.raises(ValueError):
            Transition(src, act, dst, pr=0.5, cs=-1)

    def test_unchecked_edge_keeps_the_other_checks(self):
        # checked=False skips the phase graph alone
        act = Action("m1_A", ActionClass.MITIGATION, (("A", Phase.mitigated(1)),))
        src, dst = parse_state("A:e,L:0", AB), parse_state("A:m1,L:e", AB)
        edge = Transition(src, act, dst, 0.5, 3, checked=False)
        assert (edge.pr, edge.cs) == (0.5, 3)
        other = parse_state("A:e", (AB[0],))
        for args, message in (
            ((src, act, other, 0.5, 3), "hazard set"),
            ((src, act, dst, 1.5, 3), "pr must be"),
            ((src, act, dst, 0.5, -1), "cs must be"),
        ):
            with pytest.raises(ValueError, match=message):
                Transition(*args, checked=False)

    def test_a_copy_of_an_unchecked_edge_is_checked(self):
        # checked is an argument, not a field: an edge is the same value
        # however it was made, and replace checks the phase graph again
        act = Action("m1_A", ActionClass.MITIGATION, (("A", Phase.mitigated(1)),))
        src, dst = parse_state("A:e,L:0", AB), parse_state("A:m1,L:0", AB)
        unchecked = Transition(src, act, dst, 0.5, 3, checked=False)
        built = Transition(src, act, dst, pr=0.5, cs=3)
        assert (unchecked, repr(unchecked)) == (built, repr(built))
        assert "checked" not in {f.name for f in dataclasses.fields(Transition)}
        illegal = parse_state("A:m1,L:e", AB)
        for edge in (unchecked, built):
            with pytest.raises(IllegalPhaseTransition):
                dataclasses.replace(edge, target=illegal)
        moved = dataclasses.replace(unchecked, target=illegal, checked=False)
        assert moved.target == illegal


class TestCopies:
    """States and transitions are slotted frozen dataclasses: copies,
    pickles and ``replace`` give equal values of the same layout."""

    def test_copy_pickle_replace(self):
        act = Action("f_A", ActionClass.ENDANGERMENT, (("A", Phase.active()),))
        src, dst = parse_state("A:0,L:0", AB), parse_state("A:e,L:0", AB)
        loaded = state_parser(AB)("A:e,L:0")
        edges = (
            Transition(src, act, dst, pr=0.5),
            Transition(src, act, dst, None, 2, checked=False),
        )
        for value in (src, loaded, *edges):
            for copied in (
                copy.copy(value),
                copy.deepcopy(value),
                pickle.loads(pickle.dumps(value)),
                dataclasses.replace(value),
            ):
                assert copied == value and copied is not value
                assert not hasattr(copied, "__dict__")
        assert dataclasses.replace(loaded, entries=src.entries).name == "A:0,L:0"
        moved = dataclasses.replace(edges[1], pr=0.25)
        assert (moved.pr, moved.cs) == (0.25, 2)


class TestFrozenModel:
    """A model is a value: a changed model is a new instance."""

    def test_fields_cannot_be_assigned(self, r2_model):
        model = dataclasses.replace(r2_model)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.options = ModelOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.transitions = ()
        assert model == r2_model

    def test_derived_data_is_not_carried_into_a_copy(self, r2_model):
        model = dataclasses.replace(r2_model)
        fewer = dataclasses.replace(model, transitions=model.transitions[:1])
        assert model.outgoing() is not fewer.outgoing()
        assert fewer.actions == (model.transitions[0].action,)

    def test_an_analysed_model_copies_without_its_tables(self, r2_model):
        model = dataclasses.replace(r2_model)
        table = analysis_table(model)
        for copied in (
            pickle.loads(pickle.dumps(model)),
            copy.deepcopy(model),
            copy.copy(model),
        ):
            assert copied == model and copied is not model
            assert "_memo_table" not in copied.__dict__
            assert analysis_table(copied) == table
            assert analysis_table(copied) is not table

    def test_severities_and_labels_are_read_only(self, r2_model):
        mishap = r2_model.state_named("A:em,L:em")
        with pytest.raises(TypeError):
            r2_model.sv[mishap] = Severity.MARGINAL
        with pytest.raises(TypeError):
            r2_model.labels[mishap] = "x"
        assert r2_model.sv[mishap] is r2_model.sv.get(mishap) is Severity.FATAL
        assert r2_model.label(mishap) == "A:em,L:em"

    def test_a_dict_passed_in_and_then_edited_leaves_the_model(self, r2_model):
        sv = dict(r2_model.sv)
        model = dataclasses.replace(r2_model, sv=sv)
        mishap = model.state_named("A:em,L:em")
        assert risk_priority(model, mishap) is Severity.FATAL
        sv[mishap] = Severity.MARGINAL
        assert model.sv[mishap] is Severity.FATAL
        assert risk_priority(model, mishap) is Severity.FATAL
        assert risk_priority(dataclasses.replace(model), mishap) is Severity.FATAL

    def test_handover_needs_a_fallback_feature(self, r2_model):
        message = (
            "options.region_policy: 'handover' needs a feature universe "
            "with at least one fallback feature"
        )
        features = r2_model.features
        universe = tuple(dataclasses.replace(f, fallback=False) for f in features.universe)
        for changed in (
            {"features": None},
            {"features": dataclasses.replace(features, universe=universe)},
        ):
            with pytest.raises(ValueError) as err:
                dataclasses.replace(r2_model, **changed)
            assert str(err.value) == message
        # any other policy needs no feature
        options = dataclasses.replace(r2_model.options, region_policy="no_active")
        dataclasses.replace(r2_model, features=None, options=options)


def _relabel_one_edge(model, name: str, **changes) -> dict:
    """The edges of ``model`` with the first edge of action ``name`` given
    that action changed by ``changes``."""
    edge = next(t for t in model.transitions if t.action.name == name)
    action = dataclasses.replace(edge.action, **changes)
    return {
        "transitions": tuple(
            dataclasses.replace(t, action=action) if t is edge else t
            for t in model.transitions
        )
    }


def _with_state(model, *entries) -> dict:
    return {"states": model.states | {RiskState(entries)}}


def _with_first_cost(model, cs) -> dict:
    first, *rest = model.transitions
    return {"transitions": (dataclasses.replace(first, cs=cs), *rest)}


def _with_features(model, **changes) -> dict:
    return {"features": dataclasses.replace(model.features, **changes)}


_ZERO, _ACTIVE = Phase.inactive(), Phase.active()


def _label_keys(model) -> list[tuple[str, str, str]]:
    """Each edge's (source label, action name, target label), in model order."""
    return [(model.label(t.source), t.action.name, model.label(t.target)) for t in model.transitions]


class TestEdgeOrder:
    """A model keeps its edges in label order (source label, action name,
    target label), one per key, so it equals any model with the same edges;
    it sorts its states by label once."""

    @pytest.mark.parametrize("seed", range(5))
    def test_label_order_where_it_is_not_name_order(self, r2_model, seed):
        # the h quotient labels A:m1,L:0 'A:e,L:0|A:m1,L:0', and so on
        model = quotient(r2_model, "h")
        keys = _label_keys(model)
        assert all(a < b for a, b in zip(keys, keys[1:]))
        names = [t.key() for t in model.transitions]
        assert names != sorted(names)
        edges = list(model.transitions)
        Random(seed).shuffle(edges)
        other = dataclasses.replace(model, transitions=edges)
        assert other == model
        assert other.transitions == model.transitions
        assert other.outgoing() == model.outgoing()
        states = model.sorted_states()
        assert type(states) is tuple and model.sorted_states() is states
        assert list(states) == sorted(model.states, key=model.label)

    @pytest.mark.parametrize("seed", range(5))
    def test_any_order_makes_one_model(self, r2_reduced, seed):
        model = r2_reduced
        assert _label_keys(model) == sorted(_label_keys(model))
        edges = list(model.transitions)
        Random(seed).shuffle(edges)
        for given in (edges, model.transitions[::-1]):
            other = dataclasses.replace(model, transitions=given)
            assert other == model
            assert other.transitions == model.transitions
            assert other.outgoing() == model.outgoing()
            assert other.incoming() == model.incoming()

    def test_an_edge_given_twice_is_refused_by_its_labels(self, r2_reduced):
        model = r2_reduced
        merged = model.state_named("A:m2,L:0|A:m3,L:0")
        (edge,) = (t for t in model.transitions if t.target == merged and t.action.name == "m2_A")
        twice = dataclasses.replace(edge, pr=0.5, checked=False)
        with pytest.raises(ValueError) as err:
            dataclasses.replace(model, transitions=(twice, *model.transitions))
        assert str(err.value) == (
            "transition A:m1,L:0 -m2_A-> A:m2,L:0|A:m3,L:0 is given twice"
        )


class TestModelRefusals:
    """What ``save_model`` would write and ``load_model`` refuse cannot be
    made: each such model is refused when it is made, with one line."""

    @pytest.mark.parametrize(
        "change, line",
        [
            (
                lambda m: {"labels": {s: "X" for s in m.sorted_states()[:2]}},
                "label 'X' already names another state",
            ),
            (
                lambda m: {"labels": {m.state_named("A:0,L:e"): "A:0,L:0"}},
                "label 'A:0,L:0' already names another state",
            ),
            (
                lambda m: {"labels": {RiskState((("A", _ZERO), ("L", Phase.mitigated(4)))): "Y"}},
                "label 'Y' is on 'A:0,L:m4', which is not a state",
            ),
            (
                lambda m: _relabel_one_edge(m, "f_A", domains=("drv",)),
                "two actions are named 'f_A'",
            ),
            (
                lambda m: _with_state(m, ("L", _ZERO), ("A", _ZERO)),
                "state 'L:0,A:0' does not range over the hazards in declaration order",
            ),
            (
                lambda m: _with_state(m, ("Z", _ZERO)),
                "state 'Z:0' does not range over the hazards in declaration order",
            ),
            (
                lambda m: _with_features(
                    m, effects=(*m.features.effects, ("Q", _ACTIVE, m.features.effects[0][2]))
                ),
                "features.effects[14]: undeclared hazard 'Q'",
            ),
            (
                lambda m: _with_features(
                    m,
                    effects=(
                        *m.features.effects, ("A", Phase.mitigated(9), m.features.effects[0][2])
                    ),
                ),
                "features.effects[14]: hazard 'A' has no phase 'm9'",
            ),
            (
                lambda m: _with_features(m, priority=("A", "L", "Q")),
                "features.priority[2]: undeclared hazard 'Q'",
            ),
            (
                lambda m: _with_state(m, ("A", Phase.mitigated(9)), ("L", _ZERO)),
                "hazard 'A' has no phase 'm9'",
            ),
            (lambda m: _with_first_cost(m, True), "cs must be an integer, got bool"),
            (lambda m: _with_first_cost(m, 0.5), "cs must be an integer, got float"),
            (
                lambda m: {
                    "transitions": (
                        *m.transitions,
                        dataclasses.replace(
                            m.transitions[0],
                            target=RiskState((("A", _ZERO), ("L", Phase.mitigated(4)))),
                            checked=False,
                        ),
                    )
                },
                "transition endpoints outside state set: ('A:0,L:0', 'f_A', 'A:0,L:m4')",
            ),
            (lambda m: {"hazards": (*m.hazards, m.hazards[0])}, "hazard ids must be unique"),
            # a line of output holds a label as one field
            (
                lambda m: {"labels": {m.state_named("A:e,L:0"): "A:m1,L:0\tsafe\nX"}},
                "label 'A:m1,L:0\\tsafe\\nX' is not one line without a tab",
            ),
            (
                lambda m: {"labels": {m.state_named("A:e,L:0"): "X\u2028Y"}},
                "label 'X\\u2028Y' is not one line without a tab",
            ),
            (
                lambda m: {"labels": {m.state_named("A:e,L:0"): ""}},
                "label '' is not one line without a tab",
            ),
        ],
        ids=[
            "one-label-twice", "label-is-another-name", "label-off-the-model", "two-actions",
            "hazards-out-of-order", "undeclared-hazard", "feature-effect-hazard",
            "feature-effect-phase", "feature-priority", "undeclared-phase", "bool-cost",
            "float-cost", "edge-off-the-model", "hazard-twice", "label-tab-and-newline",
            "label-line-separator", "empty-label",
        ],
    )
    def test_refused_with_one_line(self, r2_model, change, line):
        with pytest.raises(ValueError) as err:
            dataclasses.replace(r2_model, **change(r2_model))
        assert str(err.value) == line

    def test_a_label_equal_to_its_own_name_is_no_label(self, r2_model):
        state = r2_model.state_named("A:e,L:0")
        model = dataclasses.replace(r2_model, labels={state: state.name})
        assert model == r2_model and not model.labels


class TestHazardId:
    @pytest.mark.parametrize("bad", ["", "a b", "a:b", "a,b", "a|b"])
    def test_rejects_unusable_ids(self, bad):
        with pytest.raises(ValueError):
            HazardId(bad)
