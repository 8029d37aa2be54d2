from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from riskstruct import (
    CatalogInvalid,
    RiskModelError,
    construct_rs,
    load_catalog,
    model_from_dict,
    model_to_dict,
    model_to_json,
    save_model,
    to_dot,
)
from riskstruct.catalogs import catalog_path
from riskstruct.serialize import fmt_prob, json_text

_KEYS = st.one_of(st.text(max_size=6), st.sampled_from(["%", "%s", "%%", "%(a)s", "{}", "{0}", ""]))
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),  # NaN and the infinities too
    st.sampled_from([-0.0, 1e-7, 1e16, 0.1, 1.0, 5e-324, 1.7976931348623157e308]),
    st.text(),  # non-BMP text, control characters, quotes, backslashes
    st.text(st.sampled_from('\x00\x1f\x7f"\\/\u2028\udc80\U0001f600%{}é'), max_size=4),
)


@st.composite
def _rows(draw, values):
    """Objects sharing one key order; sometimes one row's order differs."""
    keys = draw(st.lists(_KEYS, min_size=1, max_size=4, unique=True))
    rows = [{k: draw(values) for k in keys} for _ in range(draw(st.integers(1, 4)))]
    if len(keys) > 1 and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = dict(reversed(list(rows[i].items())))
    return rows


_JSON = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_KEYS, children, max_size=4),
        _rows(_SCALARS),
        _rows(children),
    ),
    max_leaves=30,
)


class TestCatalogIO:
    def test_bundled_catalogs_load(self, r2_catalog, r3_catalog):
        assert [h.id for h in r2_catalog.hazards] == ["A", "L"]
        assert [h.id for h in r3_catalog.hazards] == ["A", "L", "R"]

    def test_decode_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"hazards": [,]}')
        with pytest.raises(CatalogInvalid) as err:
            load_catalog(str(path))
        assert ":1:" in str(err.value)

    def test_semantic_error_names_entity(self, tmp_path):
        data = json.loads(catalog_path("tunnel-exit-r2").read_text())
        data["mitigations"][0]["mitigates"] = {"X": "m1"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(CatalogInvalid) as err:
            load_catalog(str(path))
        assert "'X'" in str(err.value)


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(_JSON)
    def test_matches_json_dumps_indent_2(self, value):
        assert json_text(value) == json.dumps(value, indent=2, ensure_ascii=False)

    @pytest.mark.parametrize(
        "value",
        [[], {}, [{}], [{}, {}], {1: [2], None: True, 0.5: "x"}, [{"a": 1}, {"a": (1,)}],
         [{"a%s": float("nan"), "b": float("-inf")}, {"a%s": 2, "b": -0.0}]],
    )
    def test_edge_cases(self, value):
        assert json_text(value) == json.dumps(value, indent=2, ensure_ascii=False)

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

    def test_save_writes_the_utf8_model_text(self, r2_model, tmp_path):
        path = tmp_path / "m.json"
        save_model(str(path), r2_model)
        assert path.read_bytes() == model_to_json(r2_model).encode("utf-8")

    def test_save_refuses_a_lone_surrogate_before_opening(self, r2_model, tmp_path):
        state = next(iter(r2_model.states))
        model = dataclasses.replace(r2_model, labels={state: "bad\udc80"})
        path = tmp_path / "m.json"
        with pytest.raises(RiskModelError, match="UTF-8"):
            save_model(str(path), model)
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
