from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import json
import sys
import tempfile
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from riskstruct import (
    Action,
    ActionClass,
    HazardId,
    HazardPhaseModel,
    RiskModelError,
    RiskStructure,
    Transition,
    cli,
    embed_state,
    quotient,
    state_parser,
)
from riskstruct.catalogs import catalog_path
from riskstruct.cli import main
from riskstruct.serialize import save_model

from helpers import (
    DiffRefusal,
    brute_force_diff,
    chain_catalog,
    enumerate_tuple_space,
    random_structure,
)


#: An integer of one digit more than ``int()`` converts from text, and the
#: line that its ``ValueError`` says; a mutation writes it where the marker is.
_LONG_INTEGER = "9" * (sys.get_int_max_str_digits() + 1)
_LONG_INTEGER_MARK = "<long integer>"
try:
    int(_LONG_INTEGER)
except ValueError as exc:
    _LONG_INTEGER_LINE = str(exc)


def _dumps(data) -> str:
    """``json.dumps(data)``, with ``_LONG_INTEGER`` where the marker is."""
    return json.dumps(data).replace(f'"{_LONG_INTEGER_MARK}"', _LONG_INTEGER)


def relabelled(data: dict, labels: dict[str, str]) -> None:
    """Label each state named in ``labels`` anew in the JSON value ``data``
    of a model file, wherever its label is written."""

    def new(text: str) -> str:
        return labels.get(text, text)

    for row in data["states"]:
        row["label"] = new(row["label"])
    for row in data["transitions"]:
        row["source"], row["target"] = new(row["source"]), new(row["target"])
    data["initial"] = [new(text) for text in data["initial"]]
    data["sv"] = {new(text): value for text, value in data["sv"].items()}


def relabel(path: str, out, labels: dict[str, str]) -> str:
    """The model file at ``path`` written to ``out`` with each state named in
    ``labels`` labelled anew, wherever its label is written."""
    data = json.loads(open(path).read())
    relabelled(data, labels)
    out.write_text(json.dumps(data))
    return str(out)


@pytest.fixture()
def r2_path() -> str:
    return str(catalog_path("tunnel-exit-r2"))


@pytest.fixture()
def r3_path() -> str:
    return str(catalog_path("tunnel-exit-r3"))


@pytest.fixture()
def built_r2(tmp_path, r2_path) -> str:
    out = tmp_path / "r2.model.json"
    assert main(["build", r2_path, "-o", str(out)]) == 0
    return str(out)


@pytest.fixture()
def built_r3(tmp_path, r3_path) -> str:
    out = tmp_path / "r3.model.json"
    assert main(["build", r3_path, "-o", str(out)]) == 0
    return str(out)


class TestValidate:
    def test_bundled_catalog_is_valid(self, r2_path, capsys):
        assert main(["validate", r2_path]) == 0
        assert "valid" in capsys.readouterr().out

    def test_undeclared_hazard_exits_2(self, tmp_path, capsys):
        data = json.loads(catalog_path("tunnel-exit-r2").read_text())
        data["endangerments"][0]["activates"] = ["X"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == 2
        assert "'X'" in capsys.readouterr().err

    def test_each_options_defect_on_its_own_line(self, tmp_path, capsys):
        data = json.loads(catalog_path("tunnel-exit-r2").read_text())
        data.setdefault("options", {}).update(
            max_subset_size=0, bands={"l_below": 0.5, "h_at_least": 0.2}
        )
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"{bad}: options: band thresholds must satisfy 0 < l <= h <= 1\n"
            f"{bad}: options: max_subset_size must be >= 1\n"
        )

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1

    def test_duplicate_hazard_id_on_one_line(self, tmp_path, capsys):
        data = json.loads(catalog_path("tunnel-exit-r2").read_text())
        data["hazards"] += [dict(data["hazards"][0]), dict(data["hazards"][0])]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == 2
        assert capsys.readouterr().err == f"{bad}: hazards: duplicate id 'A'\n"

    @pytest.mark.parametrize(
        "section, index, key, value, message",
        [
            ("endangerments", 0, "domains", ["bogus"], "unknown domain 'bogus'"),
            # a string where a list belongs would be read as its characters
            ("endangerments", 0, "activates", "AL", "activates: must be a list"),
            ("endangerments", 0, "domains", "veh", "domains: must be a list"),
            ("mishaps", 0, "requires", "AL", "requires: must be a list"),
            ("mishaps", 0, "sets", "AL", "sets: must be a list"),
            ("situation", None, "initial", "A:0,L:0", "initial: must be a list"),
            (
                "situation",
                None,
                "invariant_predicates",
                "abc",
                "situation.invariant_predicates: must be a list",
            ),
            ("features", None, "priority", "AL", "features.priority: must be a list"),
            # bool("false") is True: a string must not be read as a boolean
            ("endangerments", 1, "enabled", "false", "enabled: must be true or false"),
            ("endangerments", 1, "absorbed", "false", "absorbed: must be true or false"),
            ("mishaps", 0, "enabled", "false", "enabled: must be true or false"),
            ("mitigations", 0, "enabled", "false", "enabled: must be true or false"),
            # float("0.01") is 0.01: a string or boolean is not a probability
            ("endangerments", 0, "pr", "0.01", "endangerments[0].pr: must be a number, got str"),
            ("mishaps", 0, "pr", True, "mishaps[0].pr: must be a number, got bool"),
            ("mitigations", 0, "pr", "0.5", "mitigations[0].pr: must be a number, got str"),
            # int(1.5) is 1: a fraction, string or boolean is not an integer
            ("mitigations", 0, "cs", 1.5, "mitigations[0].cs: must be an integer, got float"),
            ("mitigations", 0, "cs", "10", "mitigations[0].cs: must be an integer, got str"),
            ("mitigations", 0, "cs", True, "mitigations[0].cs: must be an integer, got bool"),
            (
                "hazards",
                0,
                "n_mitigations",
                3.9,
                "hazards[0].n_mitigations: must be an integer, got float",
            ),
            (
                "options",
                None,
                "max_subset_size",
                1.7,
                "options.max_subset_size: must be an integer, got float",
            ),
            # analyze, regions, reduce and export-dot could not read the model
            (
                "options",
                None,
                "region_policy",
                "bogus",
                "options.region_policy: unknown region policy 'bogus'; "
                "pick one of no_active, handover",
            ),
            ("options", "bands", "l_below", "0.02", "options.bands.l_below: must be a number, got str"),
            (
                "options",
                None,
                "bands",
                {"l_below": 0.5, "h_at_least": 0.2},
                "options: band thresholds must satisfy 0 < l <= h <= 1",
            ),
            # build could not make these actions or this initial state
            (
                "mitigations",
                0,
                "mitigates",
                {"A": "e"},
                "mitigations[0] ('m1_A'): action 'm1_A' (mitigation) cannot target "
                "phase 'e' of hazard 'A'",
            ),
            (
                "mitigations",
                0,
                "mitigates",
                {"A": "em"},
                "mitigations[0] ('m1_A'): action 'm1_A' (mitigation) cannot target "
                "phase 'em' of hazard 'A'",
            ),
            ("endangerments", 0, "name", "", "endangerments[0] (''): action name must be non-empty"),
            # plan and diff would print the name as two fields
            (
                "mitigations",
                0,
                "name",
                "m1_A\tX",
                "mitigations[0] ('m1_A\\tX'): action name 'm1_A\\tX' is not one line "
                "without a tab",
            ),
            (
                "endangerments",
                0,
                "from_phases",
                ["0", "m9"],
                "endangerments[0] ('f_A').from_phases: hazard 'A' has no phase 'm9'",
            ),
            (
                "situation",
                None,
                "initial",
                ["A:em,L:0"],
                "situation.initial: 'A:em,L:0' is a mishap state",
            ),
            ("situation", None, "initial", ["A:0,L:q"], "situation.initial: not a phase: 'q'"),
            (
                "features",
                None,
                "universe",
                [{"name": "ACC"}, {"name": "LKA"}, {"name": "DRV", "fallback": True}, {"name": "ACC"}],
                "features: duplicate feature declarations",
            ),
            # build and reduce --equiv f never read these effects
            (
                "features",
                None,
                "effects",
                [{"hazard": "Q", "phase": "e", "feature": "ACC", "variant": "primary",
                  "status": "out_of_loop"}],
                "features.effects[0]: undeclared hazard 'Q'",
            ),
            (
                "features",
                None,
                "effects",
                [{"hazard": "A", "phase": "m9", "feature": "ACC", "variant": "primary",
                  "status": "out_of_loop"}],
                "features.effects[0]: hazard 'A' has no phase 'm9'",
            ),
            ("features", None, "priority", ["A", "Q"], "features.priority[1]: undeclared hazard 'Q'"),
        ],
    )
    def test_rejected_field_exits_2_on_validate_and_build(
        self, tmp_path, capsys, section, index, key, value, message
    ):
        data = json.loads(catalog_path("tunnel-exit-r2").read_text())
        entry = data[section] if index is None else data[section][index]
        entry[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert main(["build", str(bad), "-o", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == err
        assert not (tmp_path / "m.json").exists()

    def test_probability_past_the_float_range_exits_2(self, tmp_path, capsys):
        # float() of this integer raises OverflowError, not a ValueError
        data = json.loads(catalog_path("tunnel-exit-r2").read_text())
        data["mitigations"][0]["pr"] = 10**400
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == 2
        assert "mitigations[0] ('m1_A'): pr inf outside [0,1]" in capsys.readouterr().err

    def test_string_fallback_exits_2(self, tmp_path, capsys):
        data = json.loads(catalog_path("tunnel-exit-r2").read_text())
        data["features"]["universe"][2]["fallback"] = "false"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "features.universe[2].fallback: must be true or false" in err


class TestTextEncoding:
    """Strings UTF-8 cannot encode (a lone surrogate, which a JSON ``\\u``
    escape can produce) and files that are not UTF-8 exit 2 with one line."""

    @pytest.mark.parametrize(
        "mutate, anchor",
        [
            (lambda d: d["hazards"][0].update(id="\udc80"), "hazards[0].id: "),
            (lambda d: d["hazards"][1].update(description="x\ud800y"),
             "hazards[1].description: "),
            (lambda d: d["endangerments"][0]["guard"].update({"\udfff": ["0"]}),
             "endangerments[0].guard: "),
        ],
        ids=["hazard-id", "description", "key"],
    )
    def test_catalog_exits_2_on_validate_and_build(
        self, tmp_path, capsys, mutate, anchor
    ):
        data = json.loads(catalog_path("tunnel-exit-r2").read_text())
        data["endangerments"][0]["guard"] = {}
        mutate(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{bad}: {anchor}") and err.count("\n") == 1
        assert "surrogates not allowed" in err
        out = tmp_path / "m.json"
        assert main(["build", str(bad), "-o", str(out)]) == 2
        assert capsys.readouterr().err == err
        assert not out.exists()

    def test_catalog_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"hazards": [{"id": "\xff", "n_mitigations": 1}]}')
        assert main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "not UTF-8" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "mutate, anchor",
        [
            (lambda d: d["hazards"][0].update(description="\udc80"),
             "hazards[0].description: "),
            (lambda d: d["states"][3].update(label="A:e,L:0\udc80"), "states[3].label: "),
            (lambda d: d["situation"].update(notes="\ud83d"), "situation.notes: "),
        ],
        ids=["description", "label", "notes"],
    )
    def test_model_file_exits_2(self, built_r2, tmp_path, capsys, mutate, anchor):
        data = json.loads(open(built_r2).read())
        mutate(data)
        bad = tmp_path / "bad.model.json"
        bad.write_text(json.dumps(data))
        for command in (["regions", str(bad)], ["reduce", str(bad)]):
            assert main(command) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(
                f"riskstruct: invalid model {str(bad)!r}: {anchor}"
            )
            assert captured.err.count("\n") == 1
            assert captured.out == ""

    def test_non_bmp_text_round_trips(self, built_r2, tmp_path, capsys):
        data = json.loads(open(built_r2).read())
        data["hazards"][0]["description"] = "tunnel \U0001f6a7 exit \u00e9"
        model = tmp_path / "m.json"
        model.write_text(json.dumps(data))
        out = tmp_path / "again.json"
        assert main(["reduce", str(model), "-o", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8")) == data


class TestBuild:
    def test_summary_reports_eleven_states_after_increment_two(
        self, tmp_path, r2_path, capsys
    ):
        out = tmp_path / "m.json"
        assert main(["build", r2_path, "-o", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        inc2 = [l for l in lines if l.startswith("increment 2 mitigation:")]
        assert inc2 and "(11 non-mishap states" in inc2[0]

    def test_zero_hazard_catalog(self, tmp_path, capsys):
        catalog = tmp_path / "empty.json"
        catalog.write_text(json.dumps({"hazards": []}))
        out = tmp_path / "m.json"
        assert main(["build", str(catalog), "-o", str(out)]) == 0
        model = json.loads(out.read_text())
        assert [s["name"] for s in model["states"]] == [""]
        assert model["transitions"] == []

    def test_invalid_catalog_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["build", str(bad)]) == 2
        # the file is named once, before the line and column
        assert capsys.readouterr().err == (
            f"{bad}: 1:2: Expecting property name enclosed in double quotes\n"
        )

    def test_unwritable_output_exits_1(self, tmp_path, r2_path):
        assert main(["build", r2_path, "-o", str(tmp_path / "no" / "dir.json")]) == 1


class TestWriteFailure:
    """A file that cannot be written ends the command with exit code 1 and
    one line naming it."""

    @pytest.mark.parametrize(
        "command, what",
        [(["build", "CATALOG"], "model "), (["reduce", "MODEL"], "model "),
         (["export-dot", "MODEL"], "")],
        ids=["build", "reduce", "export-dot"],
    )
    def test_missing_directory_exits_1(
        self, command, what, built_r2, r2_path, tmp_path, capsys
    ):
        out = str(tmp_path / "no" / "file")
        paths = {"CATALOG": r2_path, "MODEL": built_r2}
        capsys.readouterr()
        assert main([paths.get(arg, arg) for arg in command] + ["-o", out]) == 1
        assert capsys.readouterr().err == (
            f"riskstruct: cannot write {what}{out!r}: "
            f"[Errno 2] No such file or directory: {out!r}\n"
        )


class TestAnalyze:
    def test_line_format_and_order(self, built_r2, capsys):
        assert main(["analyze", built_r2]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "A:0,L:0\tsafe\t0.0001\tm"
        names = [l.split("\t")[0] for l in lines]
        assert names == sorted(names)
        by_name = {l.split("\t")[0]: l.split("\t") for l in lines}
        assert by_name["A:e,L:e"] == ["A:e,L:e", "hazardous", "0.5", "f"]
        assert by_name["A:em,L:em"] == ["A:em,L:em", "mishap", "1", "f"]

    def test_band_override_changes_priorities(self, built_r2, capsys):
        assert main(["analyze", built_r2, "--bands", "l=0.000001,h=0.001"]) == 0
        lines = capsys.readouterr().out.splitlines()
        by_name = {l.split("\t")[0]: l.split("\t") for l in lines}
        assert by_name["A:0,L:0"][3] == "c"  # 1e-4 lands in the medium band now

    def test_regions_command(self, built_r2, capsys):
        assert main(["regions", built_r2]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "A:m1,L:0\thazardous" in lines
        assert "A:m2,L:0\tsafe" in lines


class TestPlanCommand:
    def test_rows(self, built_r2, capsys):
        assert main(["plan", built_r2, "--from", "A:e,L:0"]) == 0
        rows = [l.split("\t") for l in capsys.readouterr().out.splitlines()]
        targets = [r[0] for r in rows]
        assert targets == sorted(targets)
        by_target = {r[0]: r for r in rows}
        assert by_target["A:m3,L:0"] == [
            "A:m3,L:0",
            "m3_A",
            "c",
            "3",
            "0.5",
            "Y",
        ]

    def test_unknown_state_exits_2(self, built_r2, capsys):
        assert main(["plan", built_r2, "--from", "A:e"]) == 2
        assert "A:e" in capsys.readouterr().err

    def test_plan_on_reduced_model_reports_merged_target(
        self, built_r2, tmp_path, capsys
    ):
        reduced = tmp_path / "reduced.json"
        assert main(["reduce", built_r2, "--equiv", "m", "-o", str(reduced)]) == 0
        capsys.readouterr()
        assert main(["plan", str(reduced), "--from", "A:e,L:0"]) == 0
        targets = [
            l.split("\t")[0] for l in capsys.readouterr().out.splitlines()
        ]
        assert "A:m2,L:0|A:m3,L:0" in targets


class TestReduceCommand:
    def test_quotient_merges_handover_pair(self, built_r2, tmp_path, capsys):
        out = tmp_path / "reduced.json"
        assert main(["reduce", built_r2, "--equiv", "m", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        labels = [s["label"] for s in data["states"]]
        assert "A:m2,L:0|A:m3,L:0" in labels
        assert len(labels) == 11

    def test_stdout_when_no_output(self, built_r2, capsys):
        assert main(["reduce", built_r2, "--equiv", "hm"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "states" in data

    @pytest.mark.parametrize("names, edges, line", [
        # s0 -m1-> s1 -m2-> s2 and a declared m1;m2 edge s0 -> s2: the model
        # written with the composite could not be read back
        (
            ("A:e,B:e", "A:m1,B:e", "A:m2,B:e"),
            ((0, "m1", 1), (0, "m1;m2", 2), (1, "m2", 2)),
            "collapse: transition A:e,B:e -m1;m2-> A:m2,B:e is given twice",
        ),
        # class-level edges, as a quotient has: s0 -m1-> s1 moves B from 0
        # to e, so the composite would be a mitigation to B's active phase
        (
            ("A:e,B:0", "A:m1,B:e", "A:0,B:e"),
            ((0, "m1", 1), (1, "m2", 2)),
            "collapse: action 'm1;m2' (mitigation) cannot target phase 'e' of hazard 'B'",
        ),
    ], ids=["repeated-edge", "no-action"])
    def test_collapse_refuses_a_composite(self, tmp_path, capsys, names, edges, line):
        hazards = (HazardPhaseModel(HazardId("A"), 2), HazardPhaseModel(HazardId("B"), 1))
        states = [state_parser(hazards)(name) for name in names]

        def edge(source, name, target):
            effect = (("A", states[target].phase("A")),)
            action = Action(name, ActionClass.MITIGATION, effect)
            return Transition(states[source], action, states[target], 0.5, 1, checked=False)

        model = RiskStructure(
            hazards=hazards,
            states=frozenset(states),
            transitions=tuple(edge(*e) for e in edges),
            initial=frozenset(states[:1]),
        )
        path, out = tmp_path / "chain.json", tmp_path / "c.json"
        save_model(str(path), model)
        assert main(["reduce", str(path), "--collapse-chains", "-o", str(out)]) == 2
        assert capsys.readouterr().err == f"riskstruct: {line}\n"
        assert not out.exists()

    def test_quotient_refuses_a_label_that_names_another_state(
        self, built_r2, tmp_path, capsys
    ):
        # the merged A:m2,L:0 and A:m3,L:0 would be labelled P|Q, as A:e,L:0 is
        labels = {"A:m2,L:0": "P", "A:m3,L:0": "Q", "A:e,L:0": "P|Q"}
        path = relabel(built_r2, tmp_path / "pq.json", labels)
        assert main(["regions", path]) == 0
        capsys.readouterr()
        out = tmp_path / "q.json"
        assert main(["reduce", path, "--equiv", "m", "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "riskstruct: quotient: label 'P|Q' already names another state\n"
        assert captured.out == ""
        assert not out.exists()

    def test_require_equal_rp_needs_an_equivalence(self, built_r2, capsys):
        # without --equiv there is no quotient to keep risk priorities in
        assert main(["reduce", built_r2, "--require-equal-rp"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "riskstruct: --require-equal-rp needs --equiv\n"
        assert captured.out == ""


class TestFlags:
    def test_max_subset_one_drops_joint_rules(self, tmp_path, r2_path, capsys):
        out = tmp_path / "m.json"
        assert main(["build", r2_path, "-o", str(out), "--max-subset", "1"]) == 0
        names = [s["name"] for s in json.loads(out.read_text())["states"]]
        assert "A:em,L:em" not in names  # the collision needs two hazards at once
        assert "A:m1,L:m2" not in names

    def test_build_band_override_is_recorded(self, tmp_path, r2_path):
        out = tmp_path / "m.json"
        assert main(["build", r2_path, "-o", str(out), "--bands", "l=0.001,h=0.5"]) == 0
        options = json.loads(out.read_text())["options"]
        assert options["bands"] == {"l_below": 0.001, "h_at_least": 0.5}

    def test_reduce_drop_file_and_collapse(self, built_r2, tmp_path, capsys):
        rulefile = tmp_path / "drops.json"
        rulefile.write_text(json.dumps({"drop": [{"action": "f_L"}, {"action": "f_A"}]}))
        out = tmp_path / "reduced.json"
        assert (
            main(
                [
                    "reduce",
                    built_r2,
                    "--drop",
                    str(rulefile),
                    "--collapse-chains",
                    "-o",
                    str(out),
                ]
            )
            == 0
        )
        data = json.loads(out.read_text())
        assert [s["name"] for s in data["states"]] == ["A:0,L:0"]

    def test_plan_slack_flag(self, built_r2, capsys):
        assert main(["plan", built_r2, "--from", "A:e,L:0", "--slack", "3"]) == 0
        rows = [l.split("\t") for l in capsys.readouterr().out.splitlines()]
        assert all(r[5] == "Y" for r in rows)

    def test_bad_bands_usage(self, built_r2, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", built_r2, "--bands", "low=1"])


def _assert_usage_error(argv, capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("riskstruct: ")
    assert err.count("\n") == 1


class TestFlagRanges:
    def test_max_subset_zero(self, tmp_path, r2_path, capsys):
        out = str(tmp_path / "m.json")
        _assert_usage_error(["build", r2_path, "-o", out, "--max-subset", "0"], capsys)

    @pytest.mark.parametrize("command", ["build", "analyze", "plan"])
    def test_inverted_bands(self, command, built_r2, r2_path, capsys):
        argv = {
            "build": ["build", r2_path],
            "analyze": ["analyze", built_r2],
            "plan": ["plan", built_r2, "--from", "A:e,L:0"],
        }[command]
        _assert_usage_error(argv + ["--bands", "l=0.5,h=0.1"], capsys)

    def test_negative_slack(self, built_r2, capsys):
        _assert_usage_error(
            ["plan", built_r2, "--from", "A:e,L:0", "--slack", "-1"], capsys
        )

    @pytest.mark.parametrize(
        "bands, message",
        [
            ("l=x,h=0.1", "not a probability: 'x'"),
            ("l=0.1", "bands need both l= and h="),
            ("l=0.5,h=0.9,l=0.01", "bands give l= twice, got 'l=0.5,h=0.9,l=0.01'"),
        ],
    )
    def test_malformed_bands(self, bands, message, built_r2, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", built_r2, "--bands", bands])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"riskstruct: argument --bands: {message}\n"


class TestMalformedDropRules:
    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            "[]",
            '{"drop": 5}',
            '{"drop": [{"action": "f_L", "self_loop": "false"}]}',
        ],
    )
    def test_exits_2_with_one_line(self, built_r2, tmp_path, capsys, text):
        rulefile = tmp_path / "drops.json"
        rulefile.write_text(text)
        assert main(["reduce", built_r2, "--drop", str(rulefile)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("riskstruct: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""


class TestOneAnchoredLine:
    """A malformed file that Python would otherwise report with its own
    exception text, or read without complaint, is refused with one line
    naming the part at fault."""

    @pytest.mark.parametrize(
        "mutate, line",
        [
            (lambda d: d["hazards"][0].pop("n_mitigations"), "hazards[0].n_mitigations: missing"),
            (lambda d: d.update(features=[]), "features: must be an object, got list"),
            (lambda d: d.update(situation="x"), "situation: must be an object, got str"),
            (
                lambda d: d["mitigations"][0].update(mitigates=[["A", "m1"]]),
                "mitigations[0].mitigates: must be an object, got list",
            ),
            (lambda d: d["hazards"][1].update(description=None),
             "hazards[1].description: must be a string, got NoneType"),
            (lambda d: d["mishaps"][0].update(name=5), "mishaps[0].name: must be a string, got int"),
            (lambda d: d.pop("hazards"), "hazards: missing"),
            (lambda d: d["mitigations"][0].update(cs=-1),
             "mitigations[0] ('m1_A'): cs -1 negative"),
            (lambda d: d["mitigations"][0].update(mitigates={}),
             "mitigations[0] ('m1_A'): moves no hazard"),
            (lambda d: d["hazards"][0].update(n_mitigations=_LONG_INTEGER_MARK),
             _LONG_INTEGER_LINE),
            (lambda d: d["situation"].update(initial=[f"A:m{_LONG_INTEGER},L:0"]),
             f"situation.initial: not a phase: 'm{_LONG_INTEGER}'"),
            # a misspelled field was ignored: no mitigation, or an unguarded rule
            (lambda d: d.update(mitigatons=d.pop("mitigations")), "mitigatons: unknown field"),
            (lambda d: d["endangerments"][0].update(gaurd=d["endangerments"][0].pop("guard")),
             "endangerments[0].gaurd: unknown field"),
            (lambda d: d["options"]["bands"].update(h_atleast=0.2),
             "options.bands.h_atleast: unknown field"),
        ],
        ids=["no-n-mitigations", "features-list", "situation-str", "mitigates-pairs",
             "description-null", "name-int", "no-hazards", "negative-cs", "no-move",
             "long-n-mitigations", "long-phase-index", "unknown-top-level",
             "unknown-rule-field", "unknown-band"],
    )
    def test_catalog(self, tmp_path, capsys, mutate, line):
        data = json.loads(catalog_path("tunnel-exit-r2").read_text())
        mutate(data)
        bad = tmp_path / "bad.json"
        bad.write_text(_dumps(data))
        assert main(["validate", str(bad)]) == 2
        assert capsys.readouterr().err == f"{bad}: {line}\n"

    @pytest.mark.parametrize(
        "mutate, line",
        [
            (lambda d: d.update(initial="A:0,L:0"), "initial: must be a list, got str"),
            (lambda d: d["actions"][0].update(effect=["A"]),
             "actions[0].effect: must be an object, got list"),
            (lambda d: d.update(sv=[]), "sv: must be an object, got list"),
            (lambda d: d.update(log={}), "log: must be a list, got dict"),
            (lambda d: d["sv"].update({"A:em,L:em": "x"}),
             "sv.A:em,L:em: 'x' is not a valid Severity"),
            (lambda d: d.pop("hazards"), "hazards: missing"),
            (lambda d: d["options"].update(bands={"l_below": 0.5, "h_at_least": 0.2}),
             "options: band thresholds must satisfy 0 < l <= h <= 1"),
            (lambda d: d["features"]["effects"].append({**d["features"]["effects"][0], "hazard": "Q"}),
             "malformed model: features.effects[14]: undeclared hazard 'Q'"),
            (lambda d: d["transitions"][0].update(cs=_LONG_INTEGER_MARK), _LONG_INTEGER_LINE),
            # regions would print a second line of its own
            (lambda d: relabelled(d, {"A:e,L:0": "A:m1,L:0\tsafe\nX"}),
             "malformed model: label 'A:m1,L:0\\tsafe\\nX' is not one line without a tab"),
            (lambda d: d["actions"][1].update(name="f_A\tX"),
             "actions[1]: action name 'f_A\\tX' is not one line without a tab"),
        ],
        ids=[
            "initial-str", "effect-list", "sv-list", "log-object", "sv-value", "no-hazards",
            "bands", "feature-effect-hazard", "long-cs", "label-lines", "action-name-tab",
        ],
    )
    def test_model_file(self, built_r2, tmp_path, capsys, mutate, line):
        self._assert_refused(built_r2, tmp_path, capsys, mutate, ["regions"], line)

    # plan, which does not assign regions, ran on such a model
    @pytest.mark.parametrize(
        "command",
        [["regions"], ["analyze"], ["plan", "--from", "A:e,L:0"], ["reduce"], ["export-dot"]],
        ids=lambda argv: argv[0],
    )
    def test_unknown_region_policy_in_a_model_file(self, built_r2, tmp_path, capsys, command):
        self._assert_refused(
            built_r2,
            tmp_path,
            capsys,
            lambda d: d["options"].update(region_policy="bogus"),
            command,
            "options.region_policy: unknown region policy 'bogus'; "
            "pick one of no_active, handover",
        )

    # plan and diff, which assign no regions, read such a model
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: [f.update(fallback=False) for f in d["features"]["universe"]],
            lambda d: d.pop("features"),
        ],
        ids=["no-fallback", "no-features"],
    )
    @pytest.mark.parametrize(
        "command",
        [["regions"], ["analyze"], ["plan", "--from", "A:e,L:0"], ["reduce"], ["export-dot"],
         ["diff", "MODEL"]],
        ids=lambda argv: argv[0],
    )
    def test_handover_without_a_fallback_feature_in_a_model_file(
        self, built_r2, tmp_path, capsys, mutate, command
    ):
        self._assert_refused(
            built_r2,
            tmp_path,
            capsys,
            mutate,
            [built_r2 if arg == "MODEL" else arg for arg in command],
            "malformed model: options.region_policy: 'handover' needs a feature "
            "universe with at least one fallback feature",
        )

    @staticmethod
    def _assert_refused(built_r2, tmp_path, capsys, mutate, command, line) -> None:
        data = json.loads(open(built_r2).read())
        mutate(data)
        bad = tmp_path / "bad.model.json"
        bad.write_text(_dumps(data))
        assert main([command[0], str(bad), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"riskstruct: invalid model {str(bad)!r}: {line}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "text, line",
        [
            ('{"drop": 5}', "drop: must be a list, got int"),
            ("[]", "top level: must be an object, got list"),
            ('{"drop": [{"action": "f_L", "source_region": "bogus"}]}',
             "drop[0].source_region: 'bogus' is not a valid Region"),
            ('{"drop": [{"source_region": "safe"}]}', "drop[0].action: missing"),
            ('{"drop": [', "1:11: Expecting value"),
            # the decoder raises RecursionError, not a ValueError
            ('{"drop": ' + "[" * 100_000 + "]" * 100_000 + "}", "nested too deeply to be read"),
            # a misspelled self_loop dropped every f_L edge, not only the self-loops
            ('{"drop": [{"action": "f_L", "self-loop": true}]}',
             "drop[0].self-loop: unknown field"),
            ('{"drop": [], "drops": []}', "drops: unknown field"),
        ],
        ids=["drop-int", "top-level-list", "region", "no-action", "truncated", "deep",
             "unknown-rule-field", "unknown-top-level"],
    )
    def test_drop_rule_file(self, built_r2, tmp_path, capsys, text, line):
        rulefile = tmp_path / "drops.json"
        rulefile.write_text(text)
        assert main(["reduce", built_r2, "--drop", str(rulefile)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"riskstruct: invalid drop-rule file {str(rulefile)!r}: {line}\n"
        assert captured.out == ""


class TestDiff:
    def test_model_against_itself_is_empty(self, built_r2, capsys):
        assert main(["diff", built_r2, built_r2]) == 0
        assert capsys.readouterr().out == ""

    def test_increment_three_adds_expected_states(self, built_r2, built_r3, capsys):
        assert main(["diff", built_r2, built_r3]) == 3
        out = capsys.readouterr().out.splitlines()
        added_states = {
            l.removeprefix("+ state ") for l in out if l.startswith("+ state ")
        }
        assert added_states == {
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
        assert not any(l.startswith("- state") for l in out)

    def test_reduced_vs_original(self, built_r2, tmp_path, capsys):
        reduced = tmp_path / "reduced.json"
        assert main(["reduce", built_r2, "--equiv", "m", "-o", str(reduced)]) == 0
        capsys.readouterr()
        assert main(["diff", str(reduced), built_r2]) == 3
        out = capsys.readouterr().out.splitlines()
        assert "- state A:m2,L:0|A:m3,L:0" in out
        assert "+ state A:m2,L:0" in out
        assert "+ state A:m3,L:0" in out

    def test_a_label_that_names_no_state_stands_for_itself(self, built_r2, tmp_path, capsys):
        path = relabel(built_r2, tmp_path / "start.json", {"A:0,L:0": "start"})
        assert main(["diff", path, path]) == 0
        assert capsys.readouterr().out == ""

    def test_a_label_that_names_no_state_differs_from_the_state(
        self, built_r2, tmp_path, capsys
    ):
        path = relabel(built_r2, tmp_path / "start.json", {"A:0,L:0": "start"})
        assert main(["diff", path, built_r2]) == 3
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["- state start", "+ state A:0,L:0"]

    def test_a_label_in_another_hazard_order_is_its_own_text(self, built_r2, tmp_path, capsys):
        # L:0,A:0 is not the canonical name of A:0,L:0, so it does not stand
        # for that state, and no edge of A:0,L:0 is made up
        path = relabel(built_r2, tmp_path / "found.json", {"A:e,L:0": "L:0,A:0"})
        assert main(["diff", path, built_r2]) == 3
        assert capsys.readouterr().out.splitlines() == [
            "- state L:0,A:0",
            "+ state A:e,L:0",
            "- transition A:0,L:0 -f_A-> L:0,A:0 (0.01)",
            "- transition L:0,A:0 -f_L-> A:e,L:e (0.02)",
            "- transition L:0,A:0 -m1_A-> A:m1,L:0 (0.99,10)",
            "- transition L:0,A:0 -m3_A-> A:m3,L:0 (0.5,3)",
            "+ transition A:0,L:0 -f_A-> A:e,L:0 (0.01)",
            "+ transition A:e,L:0 -f_L-> A:e,L:e (0.02)",
            "+ transition A:e,L:0 -m1_A-> A:m1,L:0 (0.99,10)",
            "+ transition A:e,L:0 -m3_A-> A:m3,L:0 (0.5,3)",
        ]

    @pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
    def test_two_labels_that_read_alike_exit_2(self, built_r2, tmp_path, capsys, first):
        path = relabel(built_r2, tmp_path / "xy.json", {"A:e,L:0": "X|Y", "A:m1,L:0": "Y|X"})
        assert main(["diff", path, built_r2] if first else ["diff", built_r2, path]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"riskstruct: labels 'X|Y' and 'Y|X' of {path!r} identify one state\n"
        )
        assert captured.out == ""

    def test_a_label_that_spells_a_rewritten_name_exits_2(
        self, built_r2, built_r3, tmp_path, capsys
    ):
        # over r3's hazards the unlabelled A:0,L:0 reads A:0,L:0,R:0 too
        path = relabel(built_r2, tmp_path / "spelt.json", {"A:e,L:0": "A:0,L:0,R:0"})
        assert main(["diff", path, built_r3]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"riskstruct: labels 'A:0,L:0' and 'A:0,L:0,R:0' of {path!r} identify one state\n"
        )
        assert captured.out == ""

    def test_hazards_declared_in_another_order(self, built_r2, r2_path, tmp_path, capsys):
        data = json.loads(open(r2_path).read())
        data["hazards"].reverse()
        catalog, reversed_r2 = tmp_path / "reversed.json", tmp_path / "reversed.model.json"
        catalog.write_text(json.dumps(data))
        assert main(["build", str(catalog), "-o", str(reversed_r2)]) == 0
        capsys.readouterr()
        assert main(["diff", built_r2, str(reversed_r2)]) == 0
        assert main(["diff", str(reversed_r2), built_r2]) == 0
        assert capsys.readouterr().out == ""

    def test_incompatible_hazards_exit_2(self, built_r2, built_r3, capsys):
        assert main(["diff", built_r3, built_r2]) == 2
        assert "R" in capsys.readouterr().err

    def test_different_n_mitigations_exit_2(self, built_r2, tmp_path, capsys):
        data = json.loads(open(built_r2).read())
        data["hazards"][0]["n_mitigations"] += 1
        other = tmp_path / "other.json"
        other.write_text(json.dumps(data))
        assert main(["diff", built_r2, str(other)]) == 2
        assert capsys.readouterr().err == (
            "riskstruct: incompatible hazard 'A': different n_mitigations\n"
        )


#: Label texts that name no state, so each stands for itself.
_LITERALS = ("X", "Y", "start")


def _names(hazards) -> list[str]:
    return [s.name for s in enumerate_tuple_space(hazards)]


def _reversed(name: str) -> str:
    """``name`` with its tokens in reverse order: a non-canonical spelling of
    the same state when it has two hazards or more."""
    return ",".join(reversed(name.split(",")))


@st.composite
def _relabelled(draw, model, texts):
    """``model`` with some states labelled anew by a text drawn from a small
    pool of ``texts``, or two of them joined by ``|`` in either order; a
    label that the model would refuse is left out."""
    pool = draw(st.lists(texts, min_size=1, max_size=4, unique=True))
    names = {s.name for s in model.states}
    labels = dict(model.labels)
    for s in sorted(model.states, key=lambda s: s.name):
        if draw(st.booleans()):
            continue
        text = "|".join(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2)))
        if text not in names and text not in labels.values():
            labels[s] = text
    return dataclasses.replace(model, labels=labels)


def _wider(model, hazards):
    """``model`` over ``hazards``, which declare its own and more, each
    state's added hazards inactive."""
    wide = {s.name: embed_state(s, hazards) for s in model.states}
    return RiskStructure(
        hazards=tuple(hazards),
        states=frozenset(wide.values()),
        transitions=tuple(
            Transition(wide[t.source.name], t.action, wide[t.target.name], t.pr, t.cs, checked=False)
            for t in model.transitions
        ),
        initial=frozenset(wide[s.name] for s in model.initial),
        sv={wide[s.name]: v for s, v in model.sv.items()},
        labels={wide[s.name]: text for s, text in model.labels.items()},
    )


@st.composite
def _diff_pairs(draw):
    """Two models that ``diff`` compares: relabellings of one random model,
    one of them and its ``m`` or ``h`` quotient in either order, or one of
    them and a relabelling of the model over one added hazard, the hazards
    declared in any order."""
    base = random_structure(Random(draw(st.integers(0, 2**32))))
    kind = draw(st.sampled_from(("relabelled", "quotient", "wider")))
    wide = base
    if kind == "wider":
        added = HazardPhaseModel(HazardId("H9"), draw(st.integers(1, 2)))
        wide = _wider(base, draw(st.permutations((*base.hazards, added))))
    names = _names(base.hazards) + _names(wide.hazards)
    texts = st.one_of(
        st.sampled_from(_LITERALS),
        st.sampled_from([_reversed(s.name) for s in base.states]),
        st.sampled_from(names + [_reversed(name) for name in names]),
    )
    first = draw(_relabelled(base, texts))
    if kind == "quotient":
        try:
            other = quotient(first, draw(st.sampled_from(("m", "h"))))
        except RiskModelError:  # a joined label names another state
            other = draw(_relabelled(base, texts))
        return (first, other) if draw(st.booleans()) else (other, first)
    return first, draw(_relabelled(wide, texts))


def _diff(path_a: str, path_b: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["diff", path_a, path_b])
    return code, out.getvalue(), err.getvalue()


def _signs_swapped(lines: list[str]) -> list[str]:
    """``lines`` of a diff as the diff of its models in the other order
    prints them: each sign swapped, states before transitions, and removals
    before additions."""
    swapped = [{"-": "+", "+": "-"}[line[0]] + line[1:] for line in lines]
    return sorted(swapped, key=lambda line: (line.split(" ")[1] == "transition", line[0] == "+"))


class TestDiffOracle:
    @settings(max_examples=200, deadline=None)
    @given(_diff_pairs())
    def test_matches_the_oracle(self, pair):
        model_a, model_b = pair
        expected = brute_force_diff(model_a, model_b)
        with tempfile.TemporaryDirectory() as work:
            paths = [str(Path(work) / name) for name in ("a.json", "b.json")]
            for path, model in zip(paths, pair):
                save_model(path, model)
            code, out, err = _diff(*paths)
            if isinstance(expected, DiffRefusal):
                first, second = expected.labels
                assert (code, out, err) == (
                    2,
                    "",
                    f"riskstruct: labels {first!r} and {second!r} of "
                    f"{paths[expected.model]!r} identify one state\n",
                )
            else:
                assert (code, err) == (3 if expected else 0, "")
                assert out.splitlines() == expected
            if model_a.hazards == model_b.hazards:
                code_ba, out_ba, _ = _diff(*reversed(paths))
                assert code_ba == code
                assert out_ba.splitlines() == _signs_swapped(out.splitlines())


class TestExportDot:
    def test_writes_file(self, built_r2, tmp_path):
        out = tmp_path / "g.dot"
        assert main(["export-dot", built_r2, "-o", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("digraph risk_structure {")
        assert text.count(" -> ") == 12

    def test_missing_model_exits_1(self, tmp_path):
        assert main(["export-dot", str(tmp_path / "none.json")]) == 1


class TestMalformedModel:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: {**d, "states": 5},
            lambda d: [d],
            lambda d: {k: v for k, v in d.items() if k != "states"},
            lambda d: {**d, "transitions": [{**d["transitions"][0], "source": "X:e"}]},
            lambda d: {**d, "log": [5]},
        ],
        ids=["states-int", "top-level-list", "no-states", "bad-label", "log-entry"],
    )
    def test_exits_2_with_one_line(self, built_r2, tmp_path, capsys, mutate):
        data = mutate(json.loads(open(built_r2).read()))
        bad = tmp_path / "bad.model.json"
        bad.write_text(json.dumps(data))
        assert main(["regions", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"riskstruct: invalid model {str(bad)!r}: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("cs, kind", [(2.5, "float"), (True, "bool")])
    def test_non_integer_cost_exits_2(self, built_r2, tmp_path, capsys, cs, kind):
        # read as int(cs), the cost would be written back as 2 or 1
        data = json.loads(open(built_r2).read())
        assert type(data["transitions"][3]["cs"]) is int
        data["transitions"][3]["cs"] = cs
        bad = tmp_path / "bad.model.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "out.json"
        assert main(["reduce", str(bad), "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"riskstruct: invalid model {str(bad)!r}: "
            f"transitions[3].cs: must be an integer, got {kind}\n"
        )
        assert not out.exists()


    @pytest.mark.parametrize("pr, kind", [("0.5", "str"), (True, "bool")])
    def test_non_number_probability_exits_2(self, built_r2, tmp_path, capsys, pr, kind):
        # read as float(pr), "0.5" would load and true be written back as 1.0
        data = json.loads(open(built_r2).read())
        data["transitions"][0]["pr"] = pr
        bad = tmp_path / "bad.model.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "out.json"
        assert main(["reduce", str(bad), "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"riskstruct: invalid model {str(bad)!r}: "
            f"transitions[0].pr: must be a number, got {kind}\n"
        )
        assert not out.exists()

    def test_integer_probability_loads_as_a_float(self, built_r2, tmp_path):
        data = json.loads(open(built_r2).read())
        data["transitions"][0]["pr"] = 1
        edited = tmp_path / "edited.model.json"
        edited.write_text(json.dumps(data))
        out = tmp_path / "out.json"
        assert main(["reduce", str(edited), "-o", str(out)]) == 0
        written = json.loads(out.read_text())["transitions"][0]["pr"]
        assert (written, type(written)) == (1.0, float)

    @pytest.mark.parametrize(
        "key, value, kind",
        [("increment", 1.5, "float"), ("states_total", "4", "str"), ("states_added", True, "bool")],
    )
    def test_non_integer_log_count_exits_2(
        self, built_r2, tmp_path, capsys, key, value, kind
    ):
        # read as int(value), 1.5 would be written back as 1
        data = json.loads(open(built_r2).read())
        data["log"][1][key] = value
        bad = tmp_path / "bad.model.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "out.json"
        assert main(["reduce", str(bad), "-o", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"riskstruct: invalid model {str(bad)!r}: "
            f"log[1].{key}: must be an integer, got {kind}\n"
        )
        assert not out.exists()

    def test_string_domains_exit_2(self, built_r2, tmp_path, capsys):
        # read as its characters, "veh" would fail as an unknown domain 'e'
        data = json.loads(open(built_r2).read())
        data["actions"][1]["domains"] = "veh"
        bad = tmp_path / "bad.model.json"
        bad.write_text(json.dumps(data))
        assert main(["regions", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"riskstruct: invalid model {str(bad)!r}: "
            "actions[1].domains: must be a list, got str\n"
        )


class TestAmbiguousModel:
    """A model file in which one text names two states, or one state or
    transition is listed twice, is refused: reading it would silently
    re-attach rows to another state or keep a transition twice."""

    def _assert_refused(self, data, tmp_path, capsys, anchor) -> None:
        bad = tmp_path / "ambiguous.model.json"
        bad.write_text(json.dumps(data))
        for command in (["regions", str(bad)], ["reduce", str(bad)]):
            assert main(command) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(
                f"riskstruct: invalid model {str(bad)!r}: {anchor}"
            )
            assert captured.err.count("\n") == 1
            assert captured.out == ""

    def test_label_of_another_state(self, built_r2, tmp_path, capsys):
        data = json.loads(open(built_r2).read())
        assert data["states"][0]["label"] == "A:0,L:0" == data["initial"][0]
        data["states"][1]["label"] = data["states"][0]["label"]
        self._assert_refused(
            data, tmp_path, capsys, "states[1].label: 'A:0,L:0' already names states[0]"
        )

    def test_label_equal_to_another_states_name(self, built_r2, tmp_path, capsys):
        reduced = tmp_path / "reduced.json"
        assert main(["reduce", built_r2, "--equiv", "m", "-o", str(reduced)]) == 0
        capsys.readouterr()
        data = json.loads(reduced.read_text())
        merged = data["states"][10]
        assert merged == {"name": "A:m2,L:0", "label": "A:m2,L:0|A:m3,L:0"}
        data["states"][3]["label"] = merged["name"]
        self._assert_refused(
            data, tmp_path, capsys, "states[10].name: 'A:m2,L:0' already names states[3]"
        )

    def test_state_listed_twice(self, built_r2, tmp_path, capsys):
        data = json.loads(open(built_r2).read())
        assert len(data["states"]) == 12
        data["states"].append(dict(data["states"][2]))
        self._assert_refused(
            data, tmp_path, capsys, "states[12].name: 'A:0,L:m1' already names states[2]"
        )

    def test_action_declared_twice(self, built_r2, tmp_path, capsys):
        # reading it would keep one of the two and re-attach every edge of
        # the other to it
        data = json.loads(open(built_r2).read())
        assert len(data["actions"]) == 8
        (mishap,) = (a for a in data["actions"] if a["name"] == "em_AL")
        data["actions"].append({**mishap, "domains": ["drv"]})
        self._assert_refused(
            data, tmp_path, capsys, "actions[8]: action 'em_AL' is declared twice"
        )

    def test_transition_listed_twice(self, built_r2, tmp_path, capsys):
        data = json.loads(open(built_r2).read())
        assert len(data["transitions"]) == 12
        data["transitions"].append({**data["transitions"][3], "pr": 0.5})
        self._assert_refused(
            data, tmp_path, capsys,
            "transitions[12]: A:0,L:e -m1_L-> A:0,L:m1 repeats transitions[3]",
        )

    def test_a_repeat_is_named_before_any_other_defect(self, built_r2, tmp_path, capsys):
        data = json.loads(open(built_r2).read())
        rows = data["transitions"]
        # a mishap state with an edge, an unknown initial state and no sv
        rows.append({**rows[0], "source": "A:em,L:em"})
        data["initial"] = ["nowhere"]
        data["sv"] = {}
        rows.append(dict(rows[5]))
        line = "transitions[13]: {source} -{action}-> {target} repeats transitions[5]"
        self._assert_refused(data, tmp_path, capsys, line.format(**rows[5]))

    def test_first_repeat_in_file_order(self, built_r2, tmp_path, capsys):
        data = json.loads(open(built_r2).read())
        rows = data["transitions"]
        first, seventh = rows[0], rows[7]
        line = "{source} -{action}-> {target} repeats transitions[{i}]"
        # a row listed three times is named at its second listing
        rows += [dict(first), dict(first)]
        self._assert_refused(
            data, tmp_path, capsys, "transitions[12]: " + line.format(**first, i=0)
        )
        # an earlier second listing of another row is named first
        rows.insert(1, dict(seventh))
        self._assert_refused(
            data, tmp_path, capsys, "transitions[8]: " + line.format(**seventh, i=1)
        )


class TestCyclicCollector:
    """A command runs with the cyclic collector off and leaves it as it found
    it, however the command ends."""

    @pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
    def collecting(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (lambda r2, r3, tmp: ["regions", r2], 0),
            (lambda r2, r3, tmp: ["export-dot", str(tmp / "missing.json")], 1),
            (lambda r2, r3, tmp: ["plan", r2, "--from", "nowhere"], 2),
            (lambda r2, r3, tmp: ["diff", r2, r3], 3),
        ],
        ids=["exit-0", "exit-1", "exit-2", "exit-3"],
    )
    def test_exit_codes(self, collecting, built_r2, built_r3, tmp_path, capsys, argv, code):
        assert main(argv(built_r2, built_r3, tmp_path)) == code
        assert gc.isenabled() is collecting

    def test_usage_error(self, collecting, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["regions"])
        assert exited.value.code == 2
        assert gc.isenabled() is collecting

    def test_escaping_exception(self, collecting, built_r2, monkeypatch):
        seen = []

        def failing(args):
            seen.append(gc.isenabled())
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_regions", failing)
        with pytest.raises(RuntimeError, match="boom"):
            main(["regions", built_r2])
        assert seen == [False]
        assert gc.isenabled() is collecting

    def test_a_command_leaves_little_cyclic_garbage(self, tmp_path, capsys):
        catalog, model = tmp_path / "chain.json", tmp_path / "model.json"
        catalog.write_text(json.dumps(chain_catalog(4)))
        assert main(["build", str(catalog), "-o", str(model)]) == 0
        gc.collect()
        out = tmp_path / "collapsed.json"
        assert main(["reduce", str(model), "--collapse-chains", "-o", str(out)]) == 0
        assert gc.collect() < 2000
