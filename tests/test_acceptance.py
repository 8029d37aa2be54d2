"""Acceptance suite: one test per shipped criterion, each at its stated
tolerance.  Run with ``pytest tests/test_acceptance.py -q`` to get one
PASS/FAIL line per criterion (printed by the conftest hook)."""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from dataclasses import replace
from random import Random

import pytest

from riskstruct import (
    ActionClass,
    OrderClass,
    Severity,
    classify_by_order,
    construct_rs,
    degradation_equiv,
    feature_equiv,
    full_state_space_size,
    hazard_equiv,
    mishap_equiv,
    mishap_reach_probability,
    mitigation_equiv,
    mitigation_leq,
    phase_leq,
    quotient,
    risk_priority,
    safest_possible_states,
    verify_complete,
)
from riskstruct.catalogs import catalog_path
from riskstruct.cli import main
from riskstruct.serialize import load_drop_rules

from helpers import (
    brute_force_max_path_product,
    enumerate_tuple_space,
    random_catalog,
    random_structure,
)

GOLDEN_CORE_STATES = {
    "A:0,L:0",  # initial
    "A:e,L:0",  # sensor fault active
    "A:m1,L:0",  # degraded to the backup stack
    "A:m2,L:0",  # cruise control off, driver in loop
    "A:m3,L:0",  # autopilot silenced, driver in loop
    "A:0,L:e",  # lane-keeping fault active
    "A:0,L:m1",  # backup stack silenced, driver warned
    "A:e,L:e",  # both faults active
    "A:m1,L:e",  # degraded with lane-keeping fault
    "A:e,L:m1",  # sensor fault after the backup went silent
    "A:m1,L:m2",  # everything silenced, driver has control
}

GOLDEN_SOLID_TRANSITIONS = {
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
}

THIRD_INCREMENT_ADDED = {
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

N_RANDOM_MODELS = 120
N_RANDOM_CATALOGS = 100


@pytest.fixture(scope="module")
def random_catalog_corpus():
    rng = Random(8_842)
    return [random_catalog(rng) for _ in range(N_RANDOM_CATALOGS)]


def test_criterion_01_golden_second_increment(r2_model):
    assert {s.name for s in r2_model.states} == GOLDEN_CORE_STATES | {"A:em,L:em"}
    mishaps = r2_model.mishap_states()
    assert len(mishaps) == 1
    got = {
        (t.source.name, t.action.name, t.target.name, t.pr, t.cs)
        for t in r2_model.transitions
    }
    assert GOLDEN_SOLID_TRANSITIONS <= got
    # everything beyond the expected edges is the single mishap transition
    extra = got - GOLDEN_SOLID_TRANSITIONS
    assert {(s, a, t) for s, a, t, _, _ in extra} == {
        ("A:e,L:e", "em_AL", "A:em,L:em")
    }
    assert r2_model.sv[next(iter(mishaps))] is Severity.FATAL


def test_criterion_02_quotient_reproduces_reduced_model(r2_model, tmp_path, capsys):
    reduced = quotient(r2_model, "m")
    original = {s.name for s in r2_model.states}
    labels = {reduced.label(s) for s in reduced.states}
    # exactly one merge happened, and it is the two handover states
    assert labels - original == {"A:m2,L:0|A:m3,L:0"}
    assert original - labels == {"A:m2,L:0", "A:m3,L:0"}
    # the command line route agrees
    model_path, reduced_path = tmp_path / "r2.json", tmp_path / "reduced.json"
    assert main(["build", str(catalog_path("tunnel-exit-r2")), "-o", str(model_path)]) == 0
    assert main(["reduce", str(model_path), "--equiv", "m", "-o", str(reduced_path)]) == 0
    capsys.readouterr()
    cli_labels = {
        s["label"] for s in json.loads(reduced_path.read_text())["states"]
    }
    assert cli_labels == labels
    # the documented drop rules leave ten core states plus the mishap
    rules = load_drop_rules(str(catalog_path("tunnel-exit-r2-drops")))
    from riskstruct import drop_irrelevant

    after = drop_irrelevant(reduced, rules)
    assert {after.label(s) for s in after.states} == (
        GOLDEN_CORE_STATES - {"A:m2,L:0", "A:m3,L:0"}
    ) | {"A:m2,L:0|A:m3,L:0", "A:em,L:em"}
    assert len(after.states) == 11


def test_criterion_03_equivalence_checks(r2_model):
    f = r2_model.features
    s0 = r2_model.state_named("A:0,L:0")
    a1 = r2_model.state_named("A:m1,L:0")
    a1l = r2_model.state_named("A:m1,L:e")
    al = r2_model.state_named("A:e,L:e")
    assert feature_equiv(a1, s0, f)
    assert degradation_equiv(a1, a1l, f)
    assert feature_equiv(a1l, al, f)
    # the two double-fault states share the hazard pattern even though the
    # first hazard sits in different phases (the architectural reading that
    # distinguishes them is recorded in the decision notes, not implemented)
    assert hazard_equiv(a1l, al)
    assert a1l.phase("A") != al.phase("A")


def test_criterion_04_risk_priority_categories(r2_catalog):
    for mishap_pr in (0.05, 0.3, 0.5, 0.9, 1.0):
        rule = replace(r2_catalog.mishaps[0], pr=mishap_pr)
        catalog = replace(r2_catalog, mishaps=(rule,))
        model, _ = construct_rs(catalog)
        assert risk_priority(model, model.state_named("A:m2,L:0")) is Severity.MARGINAL
        assert risk_priority(model, model.state_named("A:m3,L:0")) is Severity.MARGINAL
        mishap = next(iter(model.mishap_states()))
        assert risk_priority(model, mishap) is Severity.FATAL
        for s in model.states:
            if not mishap_reach_probability(model, s):
                assert risk_priority(model, s) is Severity.MARGINAL


def test_criterion_05_safest_possible_state(r2_model):
    reduced = quotient(r2_model, "m")
    start = reduced.state_named("A:e,L:0")
    labels = {reduced.label(s) for s in safest_possible_states(reduced, start)}
    assert "A:m2,L:0|A:m3,L:0" in labels


def test_criterion_06_third_increment_diff(tmp_path, capsys):
    r2_out = tmp_path / "r2.model.json"
    r3_out = tmp_path / "r3.model.json"
    assert main(["build", str(catalog_path("tunnel-exit-r2")), "-o", str(r2_out)]) == 0
    assert main(["build", str(catalog_path("tunnel-exit-r3")), "-o", str(r3_out)]) == 0
    capsys.readouterr()
    assert main(["diff", str(r2_out), str(r3_out)]) == 3
    out = capsys.readouterr().out.splitlines()
    added = {l.removeprefix("+ state ") for l in out if l.startswith("+ state ")}
    removed = {l for l in out if l.startswith("- state ")}
    assert added == THIRD_INCREMENT_ADDED
    assert not removed


def test_criterion_07_probability_oracle_equivalence():
    rng = Random(424_242)
    checked = 0
    for _ in range(N_RANDOM_MODELS):
        model = random_structure(rng, max_states=12)
        assert len(model.states) <= 12
        mishaps = model.mishap_states()
        for s in model.sorted_states():
            got = mishap_reach_probability(model, s)
            expected = brute_force_max_path_product(model, s, mishaps)
            assert abs(got - expected) <= 1e-12
            checked += 1
    assert checked >= 100


def test_criterion_08_order_and_equivalence_laws(random_catalog_corpus):
    # per-hazard order laws, exhaustively for up to five mitigation phases
    from riskstruct import HazardId, HazardPhaseModel

    for n in range(1, 6):
        phases = HazardPhaseModel(HazardId("h"), n).phases()
        for p in phases:
            assert phase_leq(p, p)
        for p, q in itertools.product(phases, repeat=2):
            if phase_leq(p, q) and phase_leq(q, p):
                assert p == q
        for p, q, r in itertools.product(phases, repeat=3):
            if phase_leq(p, q) and phase_leq(q, r):
                assert phase_leq(p, r)

    # state-order partial-order laws and equivalence laws on random tuples
    rng = Random(99)
    from riskstruct import HazardId, HazardPhaseModel

    for _ in range(60):
        hazards = tuple(
            HazardPhaseModel(HazardId(f"H{i}"), rng.randint(1, 4))
            for i in range(rng.randint(1, 4))
        )
        space = enumerate_tuple_space(hazards)
        for _ in range(30):
            s, t, u = (rng.choice(space) for _ in range(3))
            if mitigation_leq(s, t) and mitigation_leq(t, s):
                assert s == t
            if mitigation_leq(s, t) and mitigation_leq(t, u):
                assert mitigation_leq(s, u)
            for rel in (hazard_equiv, mishap_equiv, mitigation_equiv):
                assert rel(s, s)
                assert rel(s, t) == rel(t, s)
                if rel(s, t) and rel(t, u):
                    assert rel(s, u)
            if mitigation_equiv(s, t):
                assert hazard_equiv(s, t)

    # order-based classification agrees with the declaring rule class on
    # every transition of every constructed random model
    failures = 0
    for catalog in random_catalog_corpus:
        model, _ = construct_rs(catalog)
        for t in model.transitions:
            order = classify_by_order(t.source, t.target)
            if t.action.kind is ActionClass.MITIGATION:
                failures += order is not OrderClass.MITIGATION
            else:
                failures += order is not OrderClass.ENDANGERMENT
    assert failures == 0


def test_criterion_09_termination_and_completeness(random_catalog_corpus):
    for catalog in random_catalog_corpus:
        model, _ = construct_rs(catalog)  # internal sweep bound enforced
        assert len(model.states) <= full_state_space_size(catalog.hazards)
        assert verify_complete(model, catalog)
        again, _ = construct_rs(catalog)
        assert again == model


def test_criterion_10_byte_identical_cli_outputs(tmp_path):
    env_a = dict(os.environ, PYTHONHASHSEED="1")
    env_b = dict(os.environ, PYTHONHASHSEED="2")

    def cli(env, *args) -> bytes:
        result = subprocess.run(
            [sys.executable, "-m", "riskstruct.cli", *args],
            capture_output=True,
            env=env,
            check=True,
        )
        return result.stdout

    def run(env):
        outputs = {}
        for name in ("tunnel-exit-r2", "tunnel-exit-r3"):
            model_path = tmp_path / f"{name}.model.json"
            build_out = cli(env, "build", str(catalog_path(name)), "-o", str(model_path))
            outputs[name] = (
                build_out,
                model_path.read_bytes(),
                cli(env, "analyze", str(model_path)),
                cli(env, "export-dot", str(model_path)),
            )
        return outputs

    assert run(env_a) == run(env_b)
