"""Mutated input files through the command line.

Each property takes a well-formed catalog, model file or drop-rule file,
changes one part of it (replaces a value with one of another JSON type or
value, removes a key or an entry, or cuts the text short) and runs the
commands that read it.  Whatever the mutation, a command returns one of the
documented exit codes and raises nothing; a model or drop-rule file that
is refused gets exactly one line on stderr.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from functools import lru_cache
from pathlib import Path
from random import Random

from hypothesis import HealthCheck, given, settings, strategies as st

from riskstruct import (
    RiskModelError, cli, construct_rs, load_catalog, model_from_dict, model_to_json
)
from riskstruct.core import DOMAINS
from riskstruct.catalogs import catalog_path

from helpers import assert_matches_oracle, catalog_to_dict, random_rule_catalog

#: Values a mutation puts in place of a part of a file: every JSON type,
#: with empty, small, large, negative, fractional and phase- or state-like
#: values.  A count of 10**9 (as ``n_mitigations``) must cost no more than 7.
_VALUES = (
    None, True, False, 0, -1, 7, 10**9, 1.5, "", "x", "e", "m1", "A:e,L:0", [], ["x"], {},
    {"x": 1},
)


@st.composite
def _mutated_text(draw, value) -> str:
    """The JSON text of ``value`` with one part of it changed."""
    value = json.loads(json.dumps(value))
    parent, key, node = None, None, value
    # walk down to a random part; a part has at least a one-in-four chance
    # of being the one changed
    while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = draw(st.sampled_from(keys))
        parent, node = node, node[key]
    change = draw(st.sampled_from(("replace", "remove", "truncate")))
    if change == "truncate":
        text = json.dumps(value, indent=2)
        return text[: draw(st.integers(0, len(text) - 1))]
    if parent is None:
        value = draw(st.sampled_from(_VALUES))
    elif change == "remove":
        del parent[key]
    else:
        parent[key] = draw(st.sampled_from(_VALUES))
    return json.dumps(value)


def _run(argv) -> tuple[int, str]:
    """``cli.main(argv)``'s exit code and stderr; it must raise nothing but
    the ``SystemExit`` of a usage error."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    return code, err.getvalue()


def _assert_one_line_unless_ok(code: int, err: str, ok=(0,)) -> None:
    if code in ok:
        assert err == ""
    else:
        assert err.startswith("riskstruct: ") and err.count("\n") == 1, err


@lru_cache(maxsize=None)
def _r2_model_text() -> str:
    catalog = load_catalog(str(catalog_path("tunnel-exit-r2")))
    return model_to_json(*construct_rs(catalog))


_R2_CATALOG = json.loads(catalog_path("tunnel-exit-r2").read_text())
_R2_DROPS = json.loads(catalog_path("tunnel-exit-r2-drops").read_text())

_FUZZ = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestMutatedFiles:
    @_FUZZ
    @given(st.data())
    def test_catalog(self, data):
        text = data.draw(_mutated_text(_R2_CATALOG))
        with tempfile.TemporaryDirectory() as work:
            catalog = Path(work) / "catalog.json"
            catalog.write_text(text)
            code, err = _run(["validate", str(catalog)])
            assert code in (0, 2)
            assert (code == 0) == (err == "")
            assert all(line.startswith(f"{catalog}: ") for line in err.splitlines())
            built = _run(["build", str(catalog), "-o", str(Path(work) / "m.json")])
            assert built == (code, err)

    @_FUZZ
    @given(st.data())
    def test_model_file(self, data):
        text = data.draw(_mutated_text(json.loads(_r2_model_text())))
        with tempfile.TemporaryDirectory() as work:
            model = str(Path(work) / "model.json")
            Path(model).write_text(text)
            for argv in (
                ["regions", model],
                ["analyze", model],
                ["export-dot", model],
                ["reduce", model, "--equiv", "m", "--collapse-chains"],
                ["plan", model, "--from", "A:e,L:0"],
            ):
                _assert_one_line_unless_ok(*_run(argv))
            _assert_one_line_unless_ok(*_run(["diff", model, model]), ok=(0, 3))
        # a file the loader accepts is a model, which saves, loads back equal
        # and saves again to the same bytes
        try:
            value = json.loads(text)
        except ValueError:  # the text was cut short
            return
        try:
            loaded = model_from_dict(value)
        except RiskModelError:
            return
        written = model_to_json(*loaded)
        reread = model_from_dict(json.loads(written))
        assert reread == loaded
        assert model_to_json(*reread) == written

    @_FUZZ
    @given(st.data())
    def test_model_file_with_an_action_declared_twice(self, data):
        # the later of the two declarations is named, whatever they say
        value = json.loads(_r2_model_text())
        actions = value["actions"]
        i = data.draw(st.integers(0, len(actions) - 1))
        j = data.draw(st.integers(0, len(actions)))
        domains = data.draw(st.lists(st.sampled_from(DOMAINS), unique=True))
        actions.insert(j, {**actions[i], "domains": domains})
        with tempfile.TemporaryDirectory() as work:
            model = str(Path(work) / "model.json")
            Path(model).write_text(json.dumps(value))
            name, later = actions[j]["name"], j if j > i else i + 1
            line = f"actions[{later}]: action {name!r} is declared twice"
            for argv in (["regions", model], ["reduce", model, "--collapse-chains"]):
                assert _run(argv) == (2, f"riskstruct: invalid model {model!r}: {line}\n")

    @_FUZZ
    @given(st.data())
    def test_drop_rule_file(self, data):
        text = data.draw(_mutated_text(_R2_DROPS))
        with tempfile.TemporaryDirectory() as work:
            model, drops = Path(work) / "model.json", Path(work) / "drops.json"
            model.write_text(_r2_model_text())
            drops.write_text(text)
            _assert_one_line_unless_ok(*_run(["reduce", str(model), "--drop", str(drops)]))


#: Each command with a flag whose value is drawn, as ``{value}``.
_FLAG_COMMANDS = (
    ("build", "{catalog}", "-o", "{out}", "--max-subset={value}"),
    ("build", "{catalog}", "-o", "{out}", "--bands={value}"),
    ("analyze", "{model}", "--bands={value}"),
    ("plan", "{model}", "--from={value}"),
    ("plan", "{model}", "--from=A:e,L:0", "--bands={value}"),
    ("plan", "{model}", "--from=A:e,L:0", "--slack={value}"),
    ("reduce", "{model}", "--equiv={value}"),
)

#: Flag values: well-formed ones, near misses and any text.
_FLAG_VALUES = st.one_of(
    st.sampled_from(
        (
            "l=0.01,h=0.1", "h=0.1,l=0.01", "l=0.2,h=0.1", "l=0,h=1", "l=nan,h=0.1",
            "l=1e-400,h=0.1", "l=0.01,h=1e400", "l=0.01", "l=0.01,h=0.1,x=1", "A:e,L:0",
            "L:e,A:0", "A:em,L:0", "A:m1,L:m4", "A:m9,L:0", "A:e|L:0", "m", "h", "f", "0",
            "-1", "2", " 3", str(10**9), "9" * 5000, "",
        )
    ),
    st.text(max_size=24),
)


class TestFlags:
    """Whatever a flag's value, a command exits 0 or 2, and a refusal is one
    ``riskstruct: ...`` line."""

    @_FUZZ
    @given(st.sampled_from(_FLAG_COMMANDS), _FLAG_VALUES)
    def test_flag_values(self, command, value):
        with tempfile.TemporaryDirectory() as work:
            model = Path(work) / "model.json"
            model.write_text(_r2_model_text())
            names = dict(
                catalog=catalog_path("tunnel-exit-r2"), model=model, out=Path(work) / "m.json"
            )
            argv = [arg.format(value=value, **names) for arg in command]
            code, err = _run(argv)
            assert code in (0, 2)
            _assert_one_line_unless_ok(code, err)


class TestValidateImpliesBuild:
    """A catalog that ``validate`` accepts builds as the oracle builds it,
    and its model is read."""

    # a small catalog has about a hundred parts, and a part of its options,
    # such as a null region policy, is hit once in a few hundred examples
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_mutated_random_rule_catalogs(self, seed, data):
        catalog_data = catalog_to_dict(random_rule_catalog(Random(seed)))
        text = data.draw(_mutated_text(catalog_data))
        with tempfile.TemporaryDirectory() as work:
            catalog, model = Path(work) / "catalog.json", str(Path(work) / "model.json")
            catalog.write_text(text)
            if _run(["validate", str(catalog)])[0] != 0:
                return
            assert _run(["build", str(catalog), "-o", model]) == (0, "")
            assert _run(["regions", model]) == (0, "")
            assert_matches_oracle(load_catalog(str(catalog)))
