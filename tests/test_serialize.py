from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from riskstruct import (
    CatalogInvalid,
    ConstructionLog,
    HazardId,
    OperationalSituation,
    Phase,
    RiskModelError,
    RiskState,
    Transition,
    all_inactive,
    cli,
    collapse_safe_chains,
    construct_rs,
    load_catalog,
    load_model,
    model_from_dict,
    model_to_dict,
    model_to_json,
    quotient,
    save_model,
    to_dot,
)
from riskstruct.catalogs import catalog_path
from riskstruct.construct import SweepRecord
from riskstruct.serialize import catalog_from_dict, fmt_prob, save_dot

from helpers import (
    brute_force_dot,
    brute_force_model_from_dict,
    brute_force_model_text,
    chain_catalog,
    random_shared_name_structure,
    random_structure,
)


@pytest.fixture(scope="module")
def chain5():
    """The built chain model with 5 hazards: 1,280 states, 5,376 transitions,
    so its states and transitions each fill many write batches."""
    return construct_rs(catalog_from_dict(chain_catalog(5)))


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def assert_writers_agree(model, work: Path) -> None:
    """Every writer of the model file and of the DOT export gives the
    oracles' text, ``brute_force_model_text`` and ``brute_force_dot``; the
    same for the model's ``m`` quotient, saved and made by ``reduce``."""
    path, dot = work / "model.json", work / "model.dot"
    raw = work / "raw.json"
    save_model(str(raw), model)
    quotient_text = brute_force_model_text(quotient(model, "m"))
    assert _stdout(["reduce", str(raw), "--equiv", "m"]) == quotient_text
    for m in (model, quotient(model, "m")):
        text, dot_text = brute_force_model_text(m), brute_force_dot(m)
        assert model_to_json(m) == text
        save_model(str(path), m)
        assert path.read_bytes() == text.encode("utf-8")
        assert _stdout(["reduce", str(path)]) == text
        assert to_dot(m) == dot_text
        save_dot(str(dot), m)
        assert dot.read_bytes() == dot_text.encode("utf-8")
        assert _stdout(["export-dot", str(path)]) == dot_text
        assert cli.main(["export-dot", str(path), "-o", str(dot)]) == 0
        assert dot.read_bytes() == dot_text.encode("utf-8")


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)
#: ``_TEXT`` without line breaks and tabs (categories Cc, Zl, Zp), which a
#: label, one field of a line of output, may not hold.
_LABEL_TEXT = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), max_size=5)

#: Action-name endings that the row templates (``%``), the JSON strings and
#: the DOT labels must each carry through; none starts with a digit, so an
#: action ``a<n>`` of ``random_structure`` keeps a unique name.
_NAME_ENDINGS = ("%", "%s", "%%", "%(a)s", '"', "\\", "·é", '%s"\\é')


@st.composite
def _writer_models(draw):
    """``random_structure`` with non-ASCII, quoted and escaped labels, action
    names, hazard descriptions and notes, some ``pr`` set to None, sometimes
    no transitions, and one to three initial states."""
    model = random_structure(Random(draw(st.integers(0, 2**32))))
    states = sorted(model.states, key=lambda s: s.name)
    # unique labels that no state name equals: names start with "H"
    labels = {
        s: f"é{i}·{draw(_LABEL_TEXT)}" for i, s in enumerate(states) if draw(st.booleans())
    }
    renamed = {
        a: dataclasses.replace(a, name=a.name + draw(st.sampled_from(_NAME_ENDINGS)))
        for a in model.actions
        if draw(st.booleans())
    }
    transitions = tuple(
        dataclasses.replace(
            t,
            action=renamed.get(t.action, t.action),
            pr=None if draw(st.booleans()) else t.pr,
        )
        for t in model.transitions
    )
    if draw(st.integers(0, 3)) == 0:
        transitions = ()
    hazards = tuple(
        dataclasses.replace(h, hazard=HazardId(h.id, draw(_TEXT))) for h in model.hazards
    )
    return dataclasses.replace(
        model,
        hazards=hazards,
        transitions=transitions,
        initial=frozenset(draw(st.lists(st.sampled_from(states), min_size=1, max_size=3))),
        labels=labels,
        situation=OperationalSituation(name=draw(_TEXT), notes=draw(_TEXT)),
    )


class TestWriterOracle:
    @settings(max_examples=60, deadline=None)
    @given(_writer_models())
    def test_random_structures(self, model):
        with tempfile.TemporaryDirectory() as work:
            assert_writers_agree(model, Path(work))

    @pytest.mark.parametrize("fixture", ["r2_model", "r3_model"])
    def test_tunnel_models(self, fixture, request, tmp_path):
        assert_writers_agree(request.getfixturevalue(fixture), tmp_path)

    def test_equal_weights_are_written_alike(self, r2_model):
        # -0.0 == 0.0: rows and edge labels are rendered once per action and
        # weights, and every zero is written as 0.0
        name = "f_L"
        edges = [t for t in r2_model.transitions if t.action.name == name]
        assert len(edges) >= 2
        weights = {edges[0]: (-0.0, 1), edges[1]: (0.0, 1)}
        transitions = tuple(
            dataclasses.replace(t, pr=weights[t][0], cs=weights[t][1], checked=False)
            if t in weights
            else t
            for t in r2_model.transitions
        )
        model = dataclasses.replace(r2_model, transitions=transitions)
        text = model_to_json(model)
        assert text == brute_force_model_text(model)
        assert '"pr": -0.0,' not in text and text.count('"pr": 0.0,') == 2
        dot = to_dot(model)
        assert dot == brute_force_dot(model)
        assert "(-0," not in dot and dot.count(f'[label="{name}(0,1)"]') == 2

    def test_log_and_batches(self, chain5, tmp_path):
        model, log = chain5
        path = tmp_path / "model.json"
        save_model(str(path), model, log)
        assert path.read_bytes() == brute_force_model_text(model, log).encode("utf-8")
        dot = tmp_path / "model.dot"
        save_dot(str(dot), model)
        assert dot.read_bytes() == brute_force_dot(model).encode("utf-8")


def assert_loads_agree(data) -> None:
    """``model_from_dict`` reads what the row-by-row oracle reads."""
    model, _ = model_from_dict(data)
    expected = brute_force_model_from_dict(data)
    assert model.states == expected.states
    assert model.labels == expected.labels
    assert model.initial == expected.initial
    assert model.sv == expected.sv
    assert model.transitions == expected.transitions  # weights included


def _file_data(model, log=ConstructionLog()):
    return json.loads(model_to_json(model, log))


#: Row mutations that a load must refuse, each with a part of its message.
_BAD_ROWS = {
    "pr-above-one": (
        lambda d: d["transitions"][0].update(pr=1.5),
        "pr must be in [0,1]",
    ),
    "negative-cs": (
        lambda d: d["transitions"][-1].update(cs=-1),
        "cs must be nonnegative",
    ),
    "unknown-label": (
        lambda d: d["transitions"][0].update(target="nowhere"),
        "'nowhere'",
    ),
    "mishap-not-final": (
        lambda d: d["transitions"].append(
            {**d["transitions"][0], "source": max(d["sv"])}
        ),
        "must be final",
    ),
    "sv-off-mishap": (
        lambda d: d["sv"].update({d["initial"][0]: "m"}),
        "severity must be assigned exactly on mishap states",
    ),
    # float() would read "0.5" as 0.5 and true as 1.0
    "pr-string": (
        lambda d: d["transitions"][0].update(pr="0.5"),
        "transitions[0].pr: must be a number, got str",
    ),
    "pr-bool": (
        lambda d: d["transitions"][-1].update(pr=True),
        "must be a number, got bool",
    ),
    # str() would read 5 as "5" and null as "None"
    "name-int": (
        lambda d: d["states"][0].update(name=5),
        "states[0].name: must be a string, got int",
    ),
    "label-int": (
        lambda d: d["states"][1].update(label=5),
        "states[1].label: must be a string, got int",
    ),
    "source-null": (
        lambda d: d["transitions"][0].update(source=None),
        "transitions[0].source: must be a string, got NoneType",
    ),
    "action-list": (
        lambda d: d["transitions"][-1].update(action=["x"]),
        "must be a string, got list",
    ),
}


class TestLoadOracle:
    @settings(max_examples=60, deadline=None)
    @given(_writer_models())
    def test_random_structures(self, model):
        assert_loads_agree(_file_data(model))

    @pytest.mark.parametrize("fixture", ["r2_model", "r3_model", "r2_reduced"])
    def test_tunnel_models(self, fixture, request):
        assert_loads_agree(_file_data(request.getfixturevalue(fixture)))

    def test_chain_and_its_quotient(self, chain5):
        model, log = chain5
        assert_loads_agree(_file_data(model, log))
        assert_loads_agree(_file_data(quotient(model, "m")))

    @pytest.mark.parametrize("mutation", sorted(_BAD_ROWS))
    @pytest.mark.parametrize("fixture", ["r2_model", "r2_reduced"])
    def test_bad_rows_give_the_oracles_line(self, fixture, mutation, request):
        data = _file_data(request.getfixturevalue(fixture))
        mutate, part = _BAD_ROWS[mutation]
        mutate(data)
        with pytest.raises(RiskModelError) as loaded:
            model_from_dict(data)
        with pytest.raises(RiskModelError) as expected:
            brute_force_model_from_dict(data)
        assert str(loaded.value) == str(expected.value)
        assert part in str(loaded.value) and "\n" not in str(loaded.value)


def _traced_peak(fn) -> int:
    """Bytes allocated at the peak of ``fn()`` above what was allocated
    before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def _as_written(model):
    """``model`` with each ``pr`` at the six significant digits a model file
    holds; a composite of chain collapse can have more."""
    return dataclasses.replace(model, transitions=tuple(
        Transition(t.source, t.action, t.target, t.pr and fmt_prob(t.pr), t.cs, checked=False)
        for t in model.transitions
    ))


class TestRoundTrip:
    """A model is one value however it was made: the file of a model reads
    back as that model, and its edges in any order make it again."""

    def test_random_models_and_their_reductions(self):
        log = ConstructionLog((SweepRecord(1, "endangerment", 2, 3, 4, 5, 6),))
        counts = {"models": 0, "collapsed": 0, "refused": 0}
        for seed in range(300):
            for made in (random_structure, random_shared_name_structure):
                model = made(Random(seed))
                models = [model, quotient(model, "m"), quotient(model, "h")]
                for reduced in models[:3]:
                    try:
                        collapsed = collapse_safe_chains(reduced)
                    except RiskModelError:
                        counts["refused"] += 1
                        continue
                    if collapsed is not reduced:
                        counts["collapsed"] += 1
                        models.append(collapsed)
                rng = Random(seed)
                for m in models:
                    counts["models"] += 1
                    assert model_from_dict(json.loads(model_to_json(m, log))) == (
                        _as_written(m), log
                    )
                    shuffled = list(m.transitions)
                    rng.shuffle(shuffled)
                    for edges in (m.transitions[::-1], shuffled):
                        again = dataclasses.replace(m, transitions=edges)
                        assert again == m and again.transitions == m.transitions
                        assert again.outgoing() == m.outgoing()
        # at this writing: 1,854 models, 54 of them collapses, none refused
        assert counts["collapsed"] >= 40, counts

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_a_model_that_is_made_reads_back(self, data):
        # a state past its hazard's mitigated phases, or a cost that is not
        # an int, is refused when the model is made, not when it is read
        model = random_structure(Random(data.draw(st.integers(0, 2**32))))
        hazard = data.draw(st.sampled_from(model.hazards))
        index = data.draw(st.integers(1, hazard.n_mitigations + 2))
        state = all_inactive(model.hazards).with_phases({hazard.id: Phase.mitigated(index)})
        cs = data.draw(st.sampled_from((None, 0, 3, True, 0.5)))
        i = data.draw(st.integers(0, max(len(model.transitions) - 1, 0)))
        try:
            transitions = tuple(
                dataclasses.replace(t, cs=cs, checked=False) if j == i else t
                for j, t in enumerate(model.transitions)
            )
            made = dataclasses.replace(
                model, states=model.states | {state}, transitions=transitions
            )
        except ValueError as exc:
            assert type(exc) is ValueError and str(exc) and "\n" not in str(exc)
            return
        assert model_from_dict(json.loads(model_to_json(made)))[0] == _as_written(made)


class TestBoundedMemory:
    """A write holds the model, the encoded file and one batch of text: not
    a dict tree, the joined text and its bytes at once."""

    def test_save_model_peak_is_below_one_and_a_half_files(self, chain5, tmp_path):
        model, log = chain5
        path = tmp_path / "model.json"
        peak = _traced_peak(lambda: save_model(str(path), model, log))
        assert peak < 1.5 * path.stat().st_size

    def test_export_dot_peak_is_below_one_and_a_half_files(
        self, chain5, tmp_path, monkeypatch
    ):
        model, log = chain5
        monkeypatch.setattr(cli, "_load_model", lambda path: (model, log))
        path = tmp_path / "model.dot"
        peak = _traced_peak(
            lambda: cli.main(["export-dot", "model.json", "-o", str(path)])
        )
        assert path.read_bytes() == to_dot(model).encode("utf-8")
        assert peak < 1.5 * path.stat().st_size


def _footprint(obj) -> int:
    """Bytes of ``obj`` and of its instance dict, if it has one."""
    own = getattr(obj, "__dict__", None)
    return sys.getsizeof(obj) + (0 if own is None else sys.getsizeof(own))


class TestLoadedLayout:
    """A loaded state or transition is laid out as one built by ``__init__``:
    a model holds tens of thousands of them."""

    def test_no_larger_than_built(self, r2_reduced, tmp_path):
        path = tmp_path / "model.json"
        save_model(str(path), r2_reduced)
        model, _ = load_model(str(path))
        for t in model.transitions:
            built = Transition(t.source, t.action, t.target, t.pr, t.cs, checked=False)
            assert _footprint(t) <= _footprint(built)
        for s in model.states:
            assert _footprint(s) <= _footprint(RiskState(s.entries))


class TestCatalogIO:
    def test_bundled_catalogs_load(self, r2_catalog, r3_catalog):
        assert [h.id for h in r2_catalog.hazards] == ["A", "L"]
        assert [h.id for h in r3_catalog.hazards] == ["A", "L", "R"]

    def test_decode_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"hazards": [,]}')
        with pytest.raises(CatalogInvalid) as err:
            load_catalog(str(path))
        # the line and column, not the path: the command line names the file
        assert str(err.value) == "1:14: Expecting value"

    def test_semantic_error_names_entity(self, tmp_path):
        data = json.loads(catalog_path("tunnel-exit-r2").read_text())
        data["mitigations"][0]["mitigates"] = {"X": "m1"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(CatalogInvalid) as err:
            load_catalog(str(path))
        assert "'X'" in str(err.value)


class TestJsonText:
    """The writer's rows and ``json.dumps`` parts join to the standard
    library's text of the whole file."""

    def test_model_file_is_json_dumps_indent_2(self, r2_reduced):
        data = model_to_dict(r2_reduced)
        expected = json.dumps(data, indent=2, ensure_ascii=False) + "\n"
        assert model_to_json(r2_reduced) == expected


class TestModelIO:
    def test_round_trip_model_and_log(self, r2_catalog):
        model, log = construct_rs(r2_catalog)
        loaded_model, loaded_log = model_from_dict(
            json.loads(model_to_json(model, log))
        )
        assert loaded_model == model
        assert loaded_log == log

    def test_an_unused_declared_action_is_not_kept(self, r2_model):
        data = json.loads(model_to_json(r2_model))
        unused = {"name": "unused", "class": "ordinary", "domains": [], "effect": {}}
        data["actions"].insert(0, unused)
        loaded, _ = model_from_dict(data)
        assert loaded == r2_model
        assert loaded.actions == r2_model.actions
        assert model_to_json(loaded) == model_to_json(r2_model)

    def test_round_trip_reduced_model(self, r2_reduced):
        loaded, _ = model_from_dict(json.loads(model_to_json(r2_reduced)))
        assert loaded == r2_reduced
        merged = loaded.state_named("A:m2,L:0|A:m3,L:0")
        assert loaded.label(merged) == "A:m2,L:0|A:m3,L:0"

    def test_serialization_is_byte_stable(self, r2_catalog):
        a = model_to_json(*construct_rs(r2_catalog))
        b = model_to_json(*construct_rs(r2_catalog))
        assert a.encode() == b.encode()

    def test_probability_six_significant_digits(self):
        assert fmt_prob(0.1234567891) == 0.123457
        assert fmt_prob(0.97) == 0.97
        assert fmt_prob(1.0) == 1.0

    def test_save_refuses_an_unknown_region_policy(self, r2_model, tmp_path):
        # a file with this policy could not be read back
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match="unknown region policy 'bogus'"):
            save_model(
                str(path),
                dataclasses.replace(
                    r2_model,
                    options=dataclasses.replace(r2_model.options, region_policy="bogus"),
                ),
            )
        assert not path.exists()

    def test_save_writes_the_utf8_model_text(self, r2_model, tmp_path):
        path = tmp_path / "m.json"
        save_model(str(path), r2_model)
        assert path.read_bytes() == model_to_json(r2_model).encode("utf-8")

    def test_save_refuses_a_lone_surrogate_before_opening(
        self, r2_model, chain5, tmp_path
    ):
        state = next(iter(r2_model.states))
        model = dataclasses.replace(r2_model, labels={state: "bad\udc80"})
        path = tmp_path / "m.json"
        with pytest.raises(RiskModelError, match="UTF-8"):
            save_model(str(path), model)
        assert not path.exists()

        # an existing target is neither truncated nor rewritten
        path.write_bytes(b"previous model \xc3\xa9\n")
        with pytest.raises(RiskModelError, match="UTF-8"):
            save_model(str(path), model)
        assert path.read_bytes() == b"previous model \xc3\xa9\n"

        # a bad string in the last batches: the label-last state, the label
        # of a mishap state (an sv key) and the notes, written after the rows
        chain, log = chain5
        last = max(chain.states, key=lambda s: s.name)
        mishap = max(chain.sv, key=lambda s: s.name)
        for bad in (
            dataclasses.replace(chain, labels={last: "~\udc80"}),
            dataclasses.replace(chain, labels={mishap: "~\udc80"}),
            dataclasses.replace(chain, situation=OperationalSituation(notes="\ud83d")),
        ):
            with pytest.raises(RiskModelError, match="UTF-8"):
                save_model(str(path), bad, log)
            assert path.read_bytes() == b"previous model \xc3\xa9\n"

    def test_save_dot_refuses_a_lone_surrogate_before_opening(self, chain5, tmp_path):
        chain, _ = chain5
        last = max(chain.states, key=lambda s: s.name)
        model = dataclasses.replace(chain, labels={last: "~\udc80"})
        path = tmp_path / "m.dot"
        with pytest.raises(RiskModelError, match="UTF-8"):
            save_dot(str(path), model)
        assert not path.exists()

    def test_transitions_sorted_by_label(self, r2_model):
        d = model_to_dict(r2_model)
        keys = [(t["source"], t["action"], t["target"]) for t in d["transitions"]]
        assert keys == sorted(keys)


class TestDotExport:
    def test_region_styles_and_initial_marker(self, r2_model):
        dot = to_dot(r2_model)
        assert '"A:0,L:0" [style=solid, peripheries=2];' in dot
        assert '"A:e,L:0" [style=dashed];' in dot
        assert '"A:em,L:em" [style=dotted];' in dot

    def test_edge_labels_carry_weights(self, r2_model):
        dot = to_dot(r2_model)
        assert '[label="f_A(0.01)"]' in dot
        assert '[label="m1_A(0.99,10)"]' in dot

    def test_deterministic(self, r2_model):
        assert to_dot(r2_model) == to_dot(r2_model)

    def test_edge_count_matches_transitions(self, r3_model):
        dot = to_dot(r3_model)
        arrows = [line for line in dot.splitlines() if " -> " in line]
        assert len(arrows) == len(r3_model.transitions)

    def test_merged_labels_render(self, r2_reduced):
        dot = to_dot(r2_reduced)
        assert '"A:m2,L:0|A:m3,L:0"' in dot

    def test_minimal_model(self):
        from riskstruct import Catalog

        model, _ = construct_rs(Catalog(hazards=()))
        dot = to_dot(model)
        assert '"" [style=solid, peripheries=2];' in dot
