"""JSON persistence for catalogs and models, plus deterministic DOT export.

All output is byte-stable for a given input: collections are emitted in
canonical (label) order and probabilities are written with at most six
significant digits.  Model and DOT files are rendered in batches of rows,
each encoded as UTF-8 before the file is opened, so a write holds the model
and about one file's bytes.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, replace
from functools import partial
from json.encoder import encode_basestring
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .core import (
    Action,
    ActionClass,
    BandThresholds,
    HazardId,
    HazardPhaseModel,
    ModelOptions,
    OperationalSituation,
    Phase,
    RiskModelError,
    RiskState,
    RiskStructure,
    Severity,
    Transition,
    region_policy,
    state_parser,
)
from .analysis import Region, assign_regions
from .construct import (
    Catalog,
    CatalogInvalid,
    ConstructionLog,
    EndangermentRule,
    MishapRule,
    MitigationRule,
    PhaseGuard,
    SweepRecord,
)
from .order import (
    FeatureBaseline,
    FeatureEffect,
    FeatureModel,
    FeatureStatus,
    FeatureVariant,
)
from .reduce import DropRule


def fmt_prob(p: float) -> float:
    """Clamp a probability to six significant digits for serialization.  A
    zero is ``0.0``, so weights that compare equal are written alike."""
    return float(f"{p:.6g}") + 0.0


# A decoded JSON string holds a surrogate, which UTF-8 cannot encode, only
# where the text has a \u escape of one.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _unencodable(value: Any, anchor: str) -> Optional[str]:
    """One line naming the first string of ``value``, at ``anchor``, that
    cannot be encoded as UTF-8; None if there is none."""
    if isinstance(value, str):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            return f"{anchor or 'top level'}: {exc}"
    elif isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            if type(key) is int:
                at = f"{anchor}[{key}]"
            else:
                at = f"{anchor}.{key}" if anchor else key
            found = _unencodable(key, anchor) or _unencodable(item, at)
            if found:
                return found
    return None


def _read_json(path: str) -> Any:
    """The JSON value in the UTF-8 file ``path``.  Raises
    :class:`RiskModelError` with one line, without the path, if the file is
    not UTF-8 text or not JSON, or holds a string that UTF-8 cannot encode
    or an integer too long to convert."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        data = json.loads(text)
        found = _SURROGATE_ESCAPE.search(text) and _unencodable(data, "")
    except UnicodeDecodeError as exc:
        raise RiskModelError(f"not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise RiskModelError(f"{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise RiskModelError("nested too deeply to be read") from None
    except ValueError as exc:  # an integer of more digits than int() converts
        raise RiskModelError(str(exc)) from None
    if found:
        raise RiskModelError(found)
    return data


#: What a type error says a field of each JSON type must be.
_JSON_TYPES = {
    list: "a list",
    int: "an integer",
    float: "a number",
    bool: "true or false",
    str: "a string",
    dict: "an object",
}

#: A field or record with a defect, which is reported where it is read; as
#: a field's default, it makes the field one that must be present.
_BAD = object()

#: As a field's default, a field that :meth:`_Reader.make` leaves out when it
#: is missing, so the record takes its own default.
_ABSENT = object()


def _bad(value: Any) -> bool:
    """Whether ``value`` is ``_BAD`` or a list or tuple that holds it."""
    if type(value) is list or type(value) is tuple:
        return any(map(_bad, value))
    return value is _BAD


class _Reader:
    """Typed fields of a decoded JSON file.

    Each field has one kind: a JSON type (``float`` takes any number, as a
    float), ``[kind]`` for a list of that kind, ``{str: kind}`` for an object
    whose values are of that kind, read as its (key, value) pairs in key
    order, or a function or Enum that parses a string, such as
    ``Phase.parse`` or ``Severity``.  Each defect is collected in ``errors``
    as one line anchored at its path, and what has it reads as ``_BAD``;
    :meth:`make` makes no record of a ``_BAD`` field, so a file's other
    defects are still found and each is reported once.
    """

    def __init__(self) -> None:
        self.errors: list[str] = []
        # per object read by get: its path, the object and the keys read
        self.read: dict[int, tuple[str, Any, set[str]]] = {}

    def fail(self, anchor: str, message: str) -> Any:
        self.errors.append(f"{anchor}: {message}")
        return _BAD

    def get(self, obj: Any, path: str, key: str, kind: Any, default: Any = _BAD) -> Any:
        """The field ``key`` of the object ``obj`` at ``path``, of ``kind``.
        ``default`` stands for a missing field, and also for null where it is
        None; a field left with the default ``_BAD`` must be present, and one
        with ``_ABSENT`` takes its record's default."""
        if obj is _BAD:
            return _BAD
        self.read.setdefault(id(obj), (path, obj, set()))[2].add(key)
        value = obj.get(key, default)
        anchor = f"{path}.{key}" if path else key
        if value is _BAD:
            return self.fail(anchor, "missing")
        if value is default:
            return value
        return self.check(value, anchor, kind)

    def unknown(self) -> None:
        """Report each key, of an object that :meth:`get` read, that it did
        not read."""
        for path, obj, keys in self.read.values():
            for key in obj:
                if key not in keys:
                    self.fail(f"{path}.{key}" if path else key, "unknown field")

    def check(self, value: Any, anchor: str, kind: Any) -> Any:
        """``value`` read as ``kind``, or ``_BAD``, reported at ``anchor``."""
        json_type = type(kind) if type(kind) in (list, dict) else kind
        if json_type not in _JSON_TYPES:  # a function or Enum parses a string
            json_type = str
        if type(value) is not json_type:
            if json_type is float and type(value) is int:
                try:
                    return float(value)
                except OverflowError:  # an integer beyond every float is out of range
                    return math.inf
            got = type(value).__name__
            return self.fail(anchor, f"must be {_JSON_TYPES[json_type]}, got {got}")
        if type(kind) is list:
            items = tuple(
                self.check(item, f"{anchor}[{i}]", kind[0]) for i, item in enumerate(value)
            )
        elif type(kind) is dict:
            items = tuple(
                (key, self.check(value[key], f"{anchor}.{key}", kind[str]))
                for key in sorted(value)
            )
        else:
            return value if json_type is kind else self.make(anchor, kind, value)
        return _BAD if _bad(items) else items

    def each(self, obj: Any, path: str, key: str, default: Any = ()) -> list:
        """The anchor and object of each entry of the list at ``key``, read
        as :meth:`get` reads it; a list or entry with a defect reads as a
        ``_BAD`` entry."""
        anchor = f"{path}.{key}" if path else key
        items = self.get(obj, path, key, list, default)
        if items is _BAD:
            return [(anchor, _BAD)]
        return [
            (f"{anchor}[{i}]", self.check(item, f"{anchor}[{i}]", dict))
            for i, item in enumerate(items)
        ]

    def make(self, anchor: str, make: Callable, *args: Any, **kwargs: Any) -> Any:
        """``make(*args, **kwargs)``, leaving out ``_ABSENT`` keyword arguments;
        ``_BAD`` if an argument holds a defect, or if ``make`` raises
        ValueError or RiskModelError, which is reported at ``anchor``."""
        if _bad(args) or _bad(tuple(kwargs.values())):
            return _BAD
        kwargs = {key: value for key, value in kwargs.items() if value is not _ABSENT}
        try:
            return make(*args, **kwargs)
        except (ValueError, RiskModelError) as exc:
            return self.fail(anchor, str(exc))


def _shared_fields(r: _Reader, data: Mapping[str, Any]) -> tuple:
    """The hazards, features, situation and options that a catalog and a
    model file share."""
    hazards = tuple(
        r.make(
            path,
            HazardPhaseModel,
            r.make(
                path,
                HazardId,
                r.get(h, path, "id", str),
                description=r.get(h, path, "description", str, _ABSENT),
            ),
            r.get(h, path, "n_mitigations", int),
        )
        for path, h in r.each(data, "", "hazards", _BAD)
    )

    features = r.get(data, "", "features", dict, None)
    if features is not None:
        universe = tuple(
            r.make(
                path,
                FeatureBaseline,
                name=r.get(f, path, "name", str),
                variant=r.get(f, path, "variant", FeatureVariant, _ABSENT),
                status=r.get(f, path, "status", FeatureStatus, _ABSENT),
                fallback=r.get(f, path, "fallback", bool, _ABSENT),
            )
            for path, f in r.each(features, "features", "universe")
        )
        effects = tuple(
            (
                r.get(e, path, "hazard", str),
                r.get(e, path, "phase", Phase.parse),
                r.make(
                    path,
                    FeatureEffect,
                    r.get(e, path, "feature", str),
                    r.get(e, path, "variant", FeatureVariant),
                    r.get(e, path, "status", FeatureStatus),
                ),
            )
            for path, e in r.each(features, "features", "effects")
        )
        priority = r.get(features, "features", "priority", [str], _ABSENT)
        features = r.make("features", FeatureModel, universe, effects, priority=priority)

    s = r.get(data, "", "situation", dict, None) or {}
    situation = r.make(
        "situation",
        OperationalSituation,
        name=r.get(s, "situation", "name", str, _ABSENT),
        initial=r.get(s, "situation", "initial", [str], None) or None,
        invariant_predicates=r.get(s, "situation", "invariant_predicates", [str], _ABSENT),
        notes=r.get(s, "situation", "notes", str, _ABSENT),
    )

    o = r.get(data, "", "options", dict, None) or {}
    bands = r.get(o, "options", "bands", dict, None) or {}
    max_subset_size = r.get(o, "options", "max_subset_size", int, _ABSENT)
    bands = r.make(
        "options",
        BandThresholds,
        l_below=r.get(bands, "options.bands", "l_below", float, _ABSENT),
        h_at_least=r.get(bands, "options.bands", "h_at_least", float, _ABSENT),
    )
    # the other options are checked without the bands, so that a defect of
    # the bands does not hide one of theirs
    options = r.make(
        "options",
        ModelOptions,
        max_subset_size=max_subset_size,
        region_policy=r.get(o, "options", "region_policy", region_policy, _ABSENT),
    )
    return hazards, features, situation, r.make("options", replace, options, bands=bands)


def _rule_fields(r: _Reader, rule: Any, path: str) -> dict[str, Any]:
    """The fields that every catalog rule has besides its effect and weights."""
    guard = r.get(rule, path, "guard", {str: [Phase.parse]}, None) or ()
    return dict(
        name=r.get(rule, path, "name", str),
        pr=r.get(rule, path, "pr", float),
        guard=r.make(path, PhaseGuard, guard),
        domains=r.get(rule, path, "domains", [str], _ABSENT),
        description=r.get(rule, path, "description", str, _ABSENT),
        enabled=r.get(rule, path, "enabled", bool, _ABSENT),
    )


def catalog_from_dict(data: Mapping[str, Any]) -> Catalog:
    """The catalog of a catalog file's JSON object; raises CatalogInvalid
    with anchored messages on any defect."""
    r = _Reader()
    data = r.check(data, "top level", dict)
    hazards, features, situation, options = _shared_fields(r, data)
    endangerments = tuple(
        r.make(
            path,
            EndangermentRule,
            activates=r.get(rule, path, "activates", [str]),
            from_phases=r.get(rule, path, "from_phases", [Phase.parse], _ABSENT),
            absorbed=r.get(rule, path, "absorbed", bool, _ABSENT),
            **_rule_fields(r, rule, path),
        )
        for path, rule in r.each(data, "", "endangerments")
    )
    mishaps = tuple(
        r.make(
            path,
            MishapRule,
            requires=r.get(rule, path, "requires", [str]),
            sets=r.get(rule, path, "sets", [str]),
            sv=r.get(rule, path, "sv", Severity),
            **_rule_fields(r, rule, path),
        )
        for path, rule in r.each(data, "", "mishaps")
    )
    mitigations = tuple(
        r.make(
            path,
            MitigationRule,
            mitigates=r.get(rule, path, "mitigates", {str: Phase.parse}),
            cs=r.get(rule, path, "cs", int),
            **_rule_fields(r, rule, path),
        )
        for path, rule in r.each(data, "", "mitigations")
    )
    r.unknown()
    if r.errors:
        raise CatalogInvalid(r.errors)
    return Catalog(hazards, endangerments, mishaps, mitigations, features, situation, options)


def load_catalog(path: str) -> Catalog:
    try:
        data = _read_json(path)
    except RiskModelError as exc:
        raise CatalogInvalid([str(exc)]) from None
    return catalog_from_dict(data)


def _features_to_dict(features: FeatureModel) -> dict:
    return {
        "universe": [
            {
                "name": f.name,
                "variant": f.variant.value,
                "status": f.status.value,
                "fallback": f.fallback,
            }
            for f in features.universe
        ],
        "effects": [
            {
                "hazard": hid,
                "phase": phase.render(),
                "feature": eff.feature,
                "variant": eff.variant.value,
                "status": eff.status.value,
            }
            for hid, phase, eff in features.effects
        ],
        "priority": list(features.priority),
    }


#: Rows rendered per chunk of a model or DOT file: a chunk of a chain model
#: file is about 25 KB, so a save holds the encoded file and little more.
_BATCH_ROWS = 128


def _batches(items: Sequence) -> Iterator[Sequence]:
    for start in range(0, len(items), _BATCH_ROWS):
        yield items[start : start + _BATCH_ROWS]


#: The line break and indentation of a row of the model file's state and
#: transition lists.
_ROW_NEWLINE = "\n    "


def _row_template(keys: tuple[str, ...]) -> str:
    """A ``%``-template of a flat object with ``keys`` as a row of the model
    file, taking one JSON text per key."""
    inner = _ROW_NEWLINE + "  "
    fields = (inner + encode_basestring(key).replace("%", "%%") + ": %s" for key in keys)
    return "{" + ",".join(fields) + _ROW_NEWLINE + "}"


_STATE_ROW = _row_template(("name", "label"))
_TRANSITION_ROW = _row_template(("source", "action", "target", "pr", "cs"))


class _Rows(NamedTuple):
    """A list of flat JSON objects, one per item: the model's states and
    transitions."""

    items: Sequence
    texts: Callable[[Sequence], list[str]]  # items -> their objects' JSON texts

    def chunks(self) -> Iterator[str]:
        """The list's JSON text as a value of the model file's top-level
        object, as ``json.dumps(..., indent=2)`` writes it, in batches."""
        if not self.items:
            yield "[]"
            return
        sep = "[" + _ROW_NEWLINE
        for batch in _batches(self.items):
            yield sep
            yield ("," + _ROW_NEWLINE).join(self.texts(batch))
            sep = "," + _ROW_NEWLINE
        yield "\n  ]"


def _transition_texts(
    quoted: dict[str, str], templates: dict[tuple, str], batch: Sequence[Transition]
) -> list[str]:
    """The JSON texts of ``batch``'s transitions, from each label's JSON text
    in ``quoted`` and a template per action name and weights, rendered once
    into ``templates``."""
    texts = []
    for t in batch:
        key = (t.action.name, t.pr, t.cs)
        template = templates.get(key)
        if template is None:
            pr = None if t.pr is None else fmt_prob(t.pr)
            action = encode_basestring(t.action.name).replace("%", "%%")
            template = templates[key] = _TRANSITION_ROW % (
                "%s", action, "%s", json.dumps(pr), json.dumps(t.cs)
            )
        texts.append(template % (quoted[t.source.name], quoted[t.target.name]))
    return texts


def _model_value(model: RiskStructure, log: ConstructionLog) -> dict:
    """The model file's top-level object, with its states and transitions
    left as :class:`_Rows` for :func:`model_chunks` to render."""
    label, states = model.label, model.sorted_states()
    # each label's JSON text, by state name, rendered once for all the rows
    # it appears in
    quoted = {s.name: encode_basestring(label(s)) for s in states}
    d: dict[str, Any] = {
        "hazards": [
            {
                "id": h.id,
                "description": h.hazard.description,
                "n_mitigations": h.n_mitigations,
            }
            for h in model.hazards
        ],
        "states": _Rows(
            states,
            lambda batch: [
                _STATE_ROW % (encode_basestring(s.name), quoted[s.name]) for s in batch
            ],
        ),
        "initial": sorted(map(label, model.initial)),
        "actions": [
            {
                "name": a.name,
                "class": a.kind.value,
                "domains": list(a.domains),
                "effect": {h: p.render() for h, p in a.effect},
            }
            for a in model.actions
        ],
        "transitions": _Rows(model.transitions, partial(_transition_texts, quoted, {})),
        "sv": dict(sorted((label(s), v.value) for s, v in model.sv.items())),
        # plain records are written from their fields, in field order
        "log": [asdict(r) for r in log.records],
        "options": asdict(model.options),
    }
    if model.situation is not None:
        d["situation"] = {
            "name": model.situation.name,
            "initial": list(model.situation.initial)
            if model.situation.initial
            else None,
            "invariant_predicates": list(model.situation.invariant_predicates),
            "notes": model.situation.notes,
        }
    if model.features is not None:
        d["features"] = _features_to_dict(model.features)
    return d


def model_chunks(
    model: RiskStructure, log: ConstructionLog = ConstructionLog()
) -> Iterator[str]:
    """The model file's text in chunks of at most ``_BATCH_ROWS`` states or
    transitions; joined, they are the text that ``json.dumps(...,
    indent=2, ensure_ascii=False)`` writes of the file's value, and a line
    break."""
    sep = "{"
    for key, value in _model_value(model, log).items():
        head = f"{sep}\n  {encode_basestring(key)}: "
        if type(value) is _Rows:
            yield head
            yield from value.chunks()
        else:
            text = json.dumps(value, indent=2, ensure_ascii=False)
            yield head + text.replace("\n", "\n  ")
        sep = ","
    yield "\n}\n"


def model_to_json(model: RiskStructure, log: ConstructionLog = ConstructionLog()) -> str:
    return "".join(model_chunks(model, log))


def model_to_dict(
    model: RiskStructure, log: ConstructionLog = ConstructionLog()
) -> dict:
    """The model file as a JSON value: its text, read back."""
    return json.loads(model_to_json(model, log))


def model_from_dict(data: Mapping[str, Any]) -> tuple[RiskStructure, ConstructionLog]:
    """Rebuild a model and its log from a model file's JSON object; raises
    :class:`RiskModelError` with one line on any malformed or missing entry."""
    r = _Reader()
    data = r.check(data, "top level", dict)
    hazards, features, situation, options = _shared_fields(r, data)
    by_name: dict[str, Action] = {}
    for path, a in r.each(data, "", "actions"):
        action = r.make(
            path,
            Action,
            name=r.get(a, path, "name", str),
            kind=r.get(a, path, "class", ActionClass),
            effect=r.get(a, path, "effect", {str: Phase.parse}, _ABSENT),
            domains=r.get(a, path, "domains", [str], _ABSENT),
        )
        if action is not _BAD and by_name.setdefault(action.name, action) is not action:
            r.fail(path, f"action {action.name!r} is declared twice")
    state_rows = r.get(data, "", "states", list)
    transition_rows = r.get(data, "", "transitions", list, ())
    initial = r.get(data, "", "initial", [str])
    severities = r.get(data, "", "sv", {str: Severity}, ())
    records = [
        r.make(
            path,
            SweepRecord,
            increment=r.get(row, path, "increment", int),
            sweep=r.get(row, path, "sweep", str),
            states_added=r.get(row, path, "states_added", int),
            transitions_added=r.get(row, path, "transitions_added", int),
            states_total=r.get(row, path, "states_total", int),
            non_mishap_total=r.get(row, path, "non_mishap_total", int),
            transitions_total=r.get(row, path, "transitions_total", int),
        )
        for path, row in r.each(data, "", "log")
    ]
    if r.errors:
        raise RiskModelError("; ".join(r.errors))

    # The rows are read without the reader, since there are tens of
    # thousands of them, and give the lines of the tests' row-by-row oracle.
    def wrong(row: Mapping[str, Any], rows: str, i: int, *keys: str) -> RiskModelError:
        """The line for the first of ``keys`` whose value is not a string."""
        for key in keys:
            r.check(row[key], f"{rows}[{i}].{key}", str)
        return RiskModelError(r.errors[0])

    try:
        parse = state_parser(hazards)
        # every label and every name of a state refers to that state alone
        by_label: dict[str, RiskState] = {}
        labels: dict[RiskState, str] = {}
        states = []
        for i, entry in enumerate(state_rows):
            name = entry["name"]
            if type(name) is not str:
                raise wrong(entry, "states", i, "name")
            state = parse(name)
            label = entry.get("label", state.name)
            if type(label) is not str:
                raise wrong(entry, "states", i, "label")
            for part, key in (("name", state.name), ("label", label)):
                known = by_label.setdefault(key, state)
                if known is not state:
                    j = next(j for j, s in enumerate(states) if s is known)
                    raise RiskModelError(
                        f"states[{i}].{part}: {key!r} already names states[{j}]"
                    )
            states.append(state)
            if label != state.name:
                labels[state] = label

        # reduced models carry class-level edges, so phase-legality is not
        # re-imposed on load
        transitions = []
        for i, t in enumerate(transition_rows):
            source, target, name = t["source"], t["target"], t["action"]
            if type(source) is not str or type(target) is not str or type(name) is not str:
                raise wrong(t, "transitions", i, "source", "target", "action")
            source, target, action = by_label[source], by_label[target], by_name[name]
            pr, cs = t.get("pr"), t.get("cs")
            if pr is not None and type(pr) is not float:
                pr = r.check(pr, f"transitions[{i}].pr", float)
            if cs is not None and type(cs) is not int:
                r.check(cs, f"transitions[{i}].cs", int)
            if r.errors:
                raise RiskModelError(r.errors[0])
            transitions.append(Transition(source, action, target, pr, cs, checked=False))

        try:
            model = RiskStructure(
                hazards=hazards,
                states=frozenset(states),
                transitions=transitions,
                initial=frozenset(by_label[n] for n in initial),
                sv={by_label[label]: v for label, v in severities},
                # a model without a situation is written without one
                situation=None if data.get("situation") is None else situation,
                features=features,
                options=options,
                labels=labels,
            )
        except (KeyError, ValueError):
            # a row that repeats an earlier one is named first, in file order
            first: dict[tuple, int] = {}
            for j, t in enumerate(transitions):
                i = first.setdefault(t.key(), j)
                if i != j:
                    source = labels.get(t.source, t.source.name)
                    target = labels.get(t.target, t.target.name)
                    raise RiskModelError(
                        f"transitions[{j}]: {source} -{t.action.name}-> {target} "
                        f"repeats transitions[{i}]"
                    ) from None
            raise
    except KeyError as exc:
        raise RiskModelError(f"missing or unknown entry {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise RiskModelError(f"malformed model: {exc}") from None
    return model, ConstructionLog(tuple(records))


def load_model(path: str) -> tuple[RiskStructure, ConstructionLog]:
    return model_from_dict(_read_json(path))


def _write_utf8(path: str, chunks: Iterator[str], what: str) -> None:
    """Encode every chunk, then write them; nothing is opened unless all of
    them encode as UTF-8."""
    try:
        data = [chunk.encode("utf-8") for chunk in chunks]
    except UnicodeEncodeError as exc:
        raise RiskModelError(f"{what} cannot be written as UTF-8: {exc}") from None
    with open(path, "wb") as fh:
        fh.writelines(data)


def save_model(
    path: str, model: RiskStructure, log: ConstructionLog = ConstructionLog()
) -> None:
    """Write the model file; nothing is opened unless all of it encodes as UTF-8."""
    _write_utf8(path, model_chunks(model, log), "model")


def load_drop_rules(path: str) -> tuple[DropRule, ...]:
    """Read a drop-rule file: {"drop": [{"action", "source_region"?, "self_loop"?}]}."""
    r = _Reader()
    rules = tuple(
        r.make(
            anchor,
            DropRule,
            action=r.get(rule, anchor, "action", str),
            source_region=r.get(rule, anchor, "source_region", Region, None),
            self_loop=r.get(rule, anchor, "self_loop", bool, None),
        )
        for anchor, rule in r.each(r.check(_read_json(path), "top level", dict), "", "drop")
    )
    r.unknown()
    if r.errors:
        raise RiskModelError("; ".join(r.errors))
    return rules


_REGION_STYLE = {
    Region.SAFE: "solid",
    Region.HAZARDOUS: "dashed",
    Region.MISHAP: "dotted",
}


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_chunks(model: RiskStructure) -> Iterator[str]:
    """The DOT text of :func:`to_dot` in chunks of at most ``_BATCH_ROWS``
    lines."""
    regions = assign_regions(model)
    states = model.sorted_states()
    # each label's DOT text, by state name, quoted once for all its lines
    quoted = {s.name: _dot_quote(model.label(s)) for s in states}
    yield "digraph risk_structure {\n  rankdir=LR;\n  node [shape=ellipse];\n"
    for batch in _batches(states):
        yield "".join(
            [
                f"  {quoted[s.name]} [style={_REGION_STYLE[regions[s]]}"
                + (", peripheries=2];\n" if s in model.initial else "];\n")
                for s in batch
            ]
        )
    edge_labels: dict[tuple, str] = {}
    for batch in _batches(model.transitions):
        lines = []
        for t in batch:
            key = (t.action.name, t.pr, t.cs)
            text = edge_labels.get(key)
            if text is None:
                text = _dot_quote(t.action.name + weights_text(t.pr, t.cs))
                edge_labels[key] = text
            lines.append(
                f"  {quoted[t.source.name]} -> {quoted[t.target.name]} [label={text}];\n"
            )
        yield "".join(lines)
    yield "}\n"


def weights_text(pr: Optional[float], cs: Optional[int]) -> str:
    """``(pr,cs)`` as DOT edge labels and ``diff`` lines write an edge's
    weights: ``pr`` to six significant digits, each weight only if set, and
    nothing if neither is."""
    weights = []
    if pr is not None:
        weights.append(f"{fmt_prob(pr):.6g}")
    if cs is not None:
        weights.append(str(cs))
    return f"({','.join(weights)})" if weights else ""


def to_dot(model: RiskStructure) -> str:
    """Render the model as deterministic DOT; node borders follow the region
    (safe solid, hazardous dashed, mishap dotted), initial states are
    double-bordered, and edges are labeled ``name(pr,cs)``."""
    return "".join(dot_chunks(model))


def save_dot(path: str, model: RiskStructure) -> None:
    """Write :func:`to_dot`'s text; nothing is opened unless all of it encodes
    as UTF-8."""
    _write_utf8(path, dot_chunks(model), "DOT")
