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
from functools import partial
from itertools import islice
from json.encoder import encode_basestring
from operator import lt
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Optional

from .core import (
    Action,
    ActionClass,
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
    state_parser,
    transition_key,
)
from .analysis import Region, RegionAssignment, assign_regions
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
    """Clamp a probability to six significant digits for serialization."""
    return float(f"{p:.6g}")


# A decoded JSON string holds a surrogate, which UTF-8 cannot encode, only
# where the text has a \u escape of one.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _unencodable(text: str, data: Any) -> Optional[str]:
    """One anchored line naming the first string of ``data``, parsed from the
    JSON ``text``, that cannot be encoded as UTF-8; None if there is none."""
    if _SURROGATE_ESCAPE.search(text) is None:
        return None
    return _unencodable_at(data, "")


def _unencodable_at(value: Any, anchor: str) -> Optional[str]:
    if isinstance(value, str):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            return f"{anchor or 'top level'}: {exc}"
    elif isinstance(value, dict):
        for key, item in value.items():
            found = _unencodable_at(key, anchor) or _unencodable_at(
                item, f"{anchor}.{key}" if anchor else key
            )
            if found:
                return found
    elif isinstance(value, list):
        for i, item in enumerate(value):
            found = _unencodable_at(item, f"{anchor}[{i}]")
            if found:
                return found
    return None


def _phase(text: Any, anchor: str, errors: list[str]) -> Optional[Phase]:
    try:
        return Phase.parse(str(text))
    except RiskModelError as exc:
        errors.append(f"{anchor}: {exc}")
        return None


def _list(raw: Any, anchor: str, errors: list[str]) -> list:
    """``raw`` if it is a JSON list; anything else (a string would otherwise
    be read as its characters) is reported at ``anchor``."""
    if isinstance(raw, list):
        return raw
    errors.append(f"{anchor}: must be a list, got {type(raw).__name__}")
    return []


def _bool(raw: Any, anchor: str, errors: list[str]) -> bool:
    """``raw`` if it is a JSON boolean; anything else (the string ``"false"``
    would otherwise be read as true) is reported at ``anchor``."""
    if isinstance(raw, bool):
        return raw
    errors.append(f"{anchor}: must be true or false, got {type(raw).__name__}")
    return False


def _int(raw: Any, anchor: str, errors: list[str]) -> int:
    """``raw`` if it is a JSON integer; anything else (``1.5`` would otherwise
    be read as 1, and ``true`` as 1) is reported at ``anchor``.  The stand-in
    1 is in range for every integer field, so the defect is reported once."""
    if type(raw) is int:
        return raw
    errors.append(f"{anchor}: must be an integer, got {type(raw).__name__}")
    return 1


def _number(raw: Any, anchor: str, errors: list[str]) -> float:
    """``raw`` as a float if it is a JSON number; anything else (``float()``
    would read the string ``"0.5"`` as 0.5, and ``true`` as 1.0) is reported
    at ``anchor``.  The stand-in 0.0 is in range for every probability, so
    the defect is reported once."""
    if type(raw) is float or type(raw) is int:
        try:
            return float(raw)
        except OverflowError:  # an integer beyond every float is out of range
            return math.inf
    errors.append(f"{anchor}: must be a number, got {type(raw).__name__}")
    return 0.0


def _str_list(raw: Any, anchor: str, errors: list[str]) -> tuple[str, ...]:
    return tuple(str(x) for x in _list(raw, anchor, errors))


def _guard(raw: Any, anchor: str, errors: list[str]) -> PhaseGuard:
    if raw is None:
        return PhaseGuard()
    if not isinstance(raw, dict):
        errors.append(f"{anchor}: guard must be an object")
        return PhaseGuard()
    constraints = {}
    for hid, phases in raw.items():
        phases = _list(phases, f"{anchor}.guard.{hid}", errors)
        parsed = [_phase(p, f"{anchor}.{hid}", errors) for p in phases]
        constraints[hid] = tuple(p for p in parsed if p is not None)
    return PhaseGuard.of(constraints)


def catalog_from_dict(data: Mapping[str, Any]) -> Catalog:
    """Build and validate a catalog; raises CatalogInvalid with anchored
    messages on any defect."""
    errors: list[str] = []
    hazards = []
    for i, h in enumerate(_list(data.get("hazards", []), "hazards", errors)):
        try:
            hazards.append(
                HazardPhaseModel(
                    HazardId(str(h["id"]), str(h.get("description", ""))),
                    _int(h["n_mitigations"], f"hazards[{i}].n_mitigations", errors),
                )
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            errors.append(f"hazards[{i}]: {exc}")
    features = _features_from_dict(data.get("features"), errors)

    endangerments = []
    for i, r in enumerate(_list(data.get("endangerments", []), "endangerments", errors)):
        anchor = f"endangerments[{i}]"
        try:
            from_raw = _list(r.get("from_phases", ["0"]), f"{anchor}.from_phases", errors)
            from_phases = tuple(
                p
                for p in (_phase(t, f"{anchor}.from_phases", errors) for t in from_raw)
                if p is not None
            )
            endangerments.append(
                EndangermentRule(
                    name=str(r["name"]),
                    activates=_str_list(r["activates"], f"{anchor}.activates", errors),
                    pr=_number(r["pr"], f"{anchor}.pr", errors),
                    guard=_guard(r.get("guard"), anchor, errors),
                    from_phases=from_phases,
                    domains=_str_list(r.get("domains", []), f"{anchor}.domains", errors),
                    description=str(r.get("description", "")),
                    enabled=_bool(r.get("enabled", True), f"{anchor}.enabled", errors),
                    absorbed=_bool(r.get("absorbed", False), f"{anchor}.absorbed", errors),
                )
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            errors.append(f"{anchor}: {exc}")
    mishaps = []
    for i, r in enumerate(_list(data.get("mishaps", []), "mishaps", errors)):
        anchor = f"mishaps[{i}]"
        try:
            mishaps.append(
                MishapRule(
                    name=str(r["name"]),
                    requires=_str_list(r["requires"], f"{anchor}.requires", errors),
                    sets=_str_list(r["sets"], f"{anchor}.sets", errors),
                    pr=_number(r["pr"], f"{anchor}.pr", errors),
                    sv=Severity(str(r["sv"])),
                    guard=_guard(r.get("guard"), anchor, errors),
                    domains=_str_list(r.get("domains", []), f"{anchor}.domains", errors),
                    description=str(r.get("description", "")),
                    enabled=_bool(r.get("enabled", True), f"{anchor}.enabled", errors),
                )
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            errors.append(f"{anchor}: {exc}")
    mitigations = []
    for i, r in enumerate(_list(data.get("mitigations", []), "mitigations", errors)):
        anchor = f"mitigations[{i}]"
        try:
            mitigates = []
            for hid, target in dict(r["mitigates"]).items():
                parsed = _phase(target, f"{anchor}.mitigates.{hid}", errors)
                if parsed is not None:
                    mitigates.append((str(hid), parsed))
            mitigations.append(
                MitigationRule(
                    name=str(r["name"]),
                    mitigates=tuple(sorted(mitigates)),
                    pr=_number(r["pr"], f"{anchor}.pr", errors),
                    cs=_int(r["cs"], f"{anchor}.cs", errors),
                    guard=_guard(r.get("guard"), anchor, errors),
                    domains=_str_list(r.get("domains", []), f"{anchor}.domains", errors),
                    description=str(r.get("description", "")),
                    enabled=_bool(r.get("enabled", True), f"{anchor}.enabled", errors),
                )
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            errors.append(f"{anchor}: {exc}")

    situation = _situation_from_dict(data.get("situation"), errors)
    options = _options_from_dict(data.get("options"), errors)
    if errors:
        raise CatalogInvalid(errors)
    catalog = Catalog(
        hazards=tuple(hazards),
        endangerments=tuple(endangerments),
        mishaps=tuple(mishaps),
        mitigations=tuple(mitigations),
        features=features,
        situation=situation,
        options=options,
    )
    catalog.validate()
    return catalog


def _features_from_dict(raw: Any, errors: list[str]) -> Optional[FeatureModel]:
    if raw is None:
        return None
    try:
        universe = tuple(
            FeatureBaseline(
                name=str(f["name"]),
                variant=FeatureVariant(str(f.get("variant", "primary"))),
                status=FeatureStatus(str(f.get("status", "in_loop_operational"))),
                fallback=_bool(
                    f.get("fallback", False), f"features.universe[{i}].fallback", errors
                ),
            )
            for i, f in enumerate(raw.get("universe", ()))
        )
        effects = []
        for i, e in enumerate(raw.get("effects", ())):
            phase = _phase(e["phase"], f"features.effects[{i}]", errors)
            if phase is None:
                continue
            effects.append(
                (
                    str(e["hazard"]),
                    phase,
                    FeatureEffect(
                        str(e["feature"]),
                        FeatureVariant(str(e["variant"])),
                        FeatureStatus(str(e["status"])),
                    ),
                )
            )
        return FeatureModel(
            universe=universe,
            effects=tuple(effects),
            priority=_str_list(raw.get("priority", []), "features.priority", errors),
        )
    except (AttributeError, KeyError, TypeError, ValueError, RiskModelError) as exc:
        errors.append(f"features: {exc}")
        return None


def _situation_from_dict(raw: Any, errors: list[str]) -> OperationalSituation:
    if raw is None:
        return OperationalSituation()
    try:
        initial = raw.get("initial")
        if initial is not None:
            initial = _str_list(initial, "situation.initial", errors)
        return OperationalSituation(
            name=str(raw.get("name", "")),
            initial=initial or None,
            invariant_predicates=_str_list(
                raw.get("invariant_predicates", []),
                "situation.invariant_predicates",
                errors,
            ),
            notes=str(raw.get("notes", "")),
        )
    except (AttributeError, TypeError, ValueError) as exc:
        errors.append(f"situation: {exc}")
        return OperationalSituation()


def _options_from_dict(raw: Any, errors: list[str]) -> ModelOptions:
    if raw is None:
        return ModelOptions()
    try:
        bands = raw.get("bands", {})
        return ModelOptions(
            max_subset_size=_int(
                raw.get("max_subset_size", 2), "options.max_subset_size", errors
            ),
            band_l_below=float(bands.get("l_below", 0.01)),
            band_h_at_least=float(bands.get("h_at_least", 0.1)),
            region_policy=str(raw.get("region_policy", "no_active")),
        )
    except (AttributeError, TypeError, ValueError) as exc:
        errors.append(f"options: {exc}")
        return ModelOptions()


def load_catalog(path: str) -> Catalog:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        data = json.loads(text)
    except UnicodeDecodeError as exc:
        raise CatalogInvalid([f"{path}: not UTF-8 text: {exc}"]) from None
    except json.JSONDecodeError as exc:
        raise CatalogInvalid(
            [f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"]
        ) from None
    if not isinstance(data, dict):
        raise CatalogInvalid([f"{path}: catalog must be a JSON object"])
    found = _unencodable(text, data)
    if found is not None:
        raise CatalogInvalid([found])
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


def _file_order(model: RiskStructure) -> tuple[dict, list, list]:
    """Each state's label by state name, the states sorted by label, and the
    transitions sorted by source label, action name and target label: the
    order of the model file and of the DOT export."""
    label = {s.name: s.name for s in model.states}
    label.update((s.name, text) for s, text in model.labels.items())
    states = sorted(model.states, key=lambda s: label[s.name])
    transitions = sorted(
        model.transitions,
        key=lambda t: (label[t.source.name], t.action.name, label[t.target.name]),
    )
    return label, states, transitions


#: Rows rendered per chunk of a model or DOT file: a chunk of a chain model
#: file is about 25 KB, so a save holds the encoded file and little more.
_BATCH_ROWS = 128


def _batches(items: list) -> Iterator[list]:
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


_STATE_FIELDS = ("name", "label")
_TRANSITION_FIELDS = ("source", "action", "target", "pr", "cs")
_STATE_ROW = _row_template(_STATE_FIELDS)
_TRANSITION_ROW = _row_template(_TRANSITION_FIELDS)


class _Rows(NamedTuple):
    """A list of flat JSON objects, one per item, all with ``fields`` as keys:
    the model's states and transitions."""

    fields: tuple[str, ...]
    values: Callable[[Any], tuple]  # item -> one scalar per field
    items: list
    texts: Callable[[list], list[str]]  # items -> their objects' JSON texts

    def dicts(self) -> list[dict]:
        return [dict(zip(self.fields, self.values(item))) for item in self.items]

    def chunks(self) -> Iterator[str]:
        """The list's JSON text as a value of the model file's top-level
        object, ``json.dumps(self.dicts(), indent=2)`` re-indented, in
        batches."""
        if not self.items:
            yield "[]"
            return
        sep = "[" + _ROW_NEWLINE
        for batch in _batches(self.items):
            yield sep
            yield ("," + _ROW_NEWLINE).join(self.texts(batch))
            sep = "," + _ROW_NEWLINE
        yield "\n  ]"


def edge_text_key(name: str, pr: Optional[float], cs: Optional[int]) -> tuple:
    """A key under which every edge of action ``name`` with weights ``pr``
    and ``cs`` is written alike.  ``-0.0 == 0.0`` and ``True == 1``, yet each
    is written its own way, so a zero weight stands as its ``repr`` and
    ``cs`` comes with its type."""
    return (name, pr or repr(pr), cs or repr(cs), cs.__class__)


def _transition_texts(
    quoted: dict[str, str], templates: dict[tuple, str], batch: list[Transition]
) -> list[str]:
    """The JSON texts of ``batch``'s transitions, from each label's JSON text
    in ``quoted`` and a template per :func:`edge_text_key`, rendered once
    into ``templates``."""
    texts = []
    for t in batch:
        key = edge_text_key(t.action.name, t.pr, t.cs)
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
    left as :class:`_Rows` for the caller to expand or render."""
    label, states, transitions = _file_order(model)
    # each label's JSON text, rendered once for all the rows it appears in
    quoted = {name: encode_basestring(text) for name, text in label.items()}
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
            _STATE_FIELDS,
            lambda s: (s.name, label[s.name]),
            states,
            lambda batch: [
                _STATE_ROW % (encode_basestring(s.name), quoted[s.name]) for s in batch
            ],
        ),
        "initial": sorted(label[s.name] for s in model.initial),
        "actions": [
            {
                "name": a.name,
                "class": a.kind.value,
                "domains": list(a.domains),
                "effect": {h: p.render() for h, p in a.effect},
            }
            for a in model.actions
        ],
        "transitions": _Rows(
            _TRANSITION_FIELDS,
            lambda t: (
                label[t.source.name],
                t.action.name,
                label[t.target.name],
                fmt_prob(t.pr) if t.pr is not None else None,
                t.cs,
            ),
            transitions,
            partial(_transition_texts, quoted, {}),
        ),
        "sv": {
            label[s.name]: v.value
            for s, v in sorted(model.sv.items(), key=lambda kv: label[kv[0].name])
        },
        "log": [
            {
                "increment": r.increment,
                "sweep": r.sweep,
                "states_added": r.states_added,
                "transitions_added": r.transitions_added,
                "states_total": r.states_total,
                "non_mishap_total": r.non_mishap_total,
                "transitions_total": r.transitions_total,
            }
            for r in log.records
        ],
        "options": {
            "max_subset_size": model.options.max_subset_size,
            "bands": {
                "l_below": model.options.band_l_below,
                "h_at_least": model.options.band_h_at_least,
            },
            "region_policy": model.options.region_policy,
        },
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


def model_to_dict(
    model: RiskStructure, log: ConstructionLog = ConstructionLog()
) -> dict:
    """The model file as a JSON value."""
    return {
        key: value.dicts() if type(value) is _Rows else value
        for key, value in _model_value(model, log).items()
    }


def model_chunks(
    model: RiskStructure, log: ConstructionLog = ConstructionLog()
) -> Iterator[str]:
    """The model file's text in chunks of at most ``_BATCH_ROWS`` states or
    transitions; joined, they are ``json.dumps(model_to_dict(model, log),
    indent=2, ensure_ascii=False) + "\\n"``."""
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


def model_from_dict(data: Mapping[str, Any]) -> tuple[RiskStructure, ConstructionLog]:
    """Rebuild a model and its log; raises :class:`RiskModelError` with one
    line on any malformed or missing entry."""
    if not isinstance(data, Mapping):
        raise RiskModelError(f"a model must be a JSON object, got {type(data).__name__}")
    try:
        return _model_from_dict(data)
    except KeyError as exc:
        raise RiskModelError(f"missing or unknown entry {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise RiskModelError(f"malformed model: {exc}") from None


def _model_from_dict(data: Mapping[str, Any]) -> tuple[RiskStructure, ConstructionLog]:
    errors: list[str] = []
    hazards = tuple(
        HazardPhaseModel(
            HazardId(str(h["id"]), str(h.get("description", ""))),
            _int(h["n_mitigations"], f"hazards[{i}].n_mitigations", errors),
        )
        for i, h in enumerate(data["hazards"])
    )
    features = _features_from_dict(data.get("features"), errors)
    situation = _situation_from_dict(data.get("situation"), errors)
    options = _options_from_dict(data.get("options"), errors)
    if errors:
        raise RiskModelError("; ".join(errors))

    parse = state_parser(hazards)
    # every label and every name of a state refers to that state alone
    by_label: dict[str, RiskState] = {}
    labels: dict[RiskState, str] = {}
    states = []
    for i, entry in enumerate(data["states"]):
        state = parse(str(entry["name"]))
        label = str(entry.get("label", state.name))
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

    actions: dict[str, Action] = {}
    for i, a in enumerate(data.get("actions", ())):
        effect = tuple(
            (str(h), Phase.parse(str(p))) for h, p in dict(a.get("effect", {})).items()
        )
        actions[str(a["name"])] = Action(
            name=str(a["name"]),
            kind=ActionClass(str(a["class"])),
            effect=effect,
            domains=_str_list(a.get("domains", []), f"actions[{i}].domains", errors),
        )
    if errors:
        raise RiskModelError("; ".join(errors))

    # reduced models carry class-level edges, so phase-legality is not
    # re-imposed on load
    row = Transition._row
    transitions = []
    for i, t in enumerate(data.get("transitions", ())):
        source, target = by_label[str(t["source"])], by_label[str(t["target"])]
        action = actions[str(t["action"])]
        pr, cs = t.get("pr"), t.get("cs")
        if pr is not None and type(pr) is not float:
            pr = _number(pr, f"transitions[{i}].pr", errors)
        if cs is not None and type(cs) is not int:
            _int(cs, f"transitions[{i}].cs", errors)
        if errors:
            raise RiskModelError(errors[0])
        transitions.append(row(source, action, target, pr, cs))
    ordered = _key_order(transitions, labels)

    sv = {by_label[str(k)]: Severity(str(v)) for k, v in data.get("sv", {}).items()}
    records = []
    for i, r in enumerate(data.get("log", ())):
        counts = {key: _int(r[key], f"log[{i}].{key}", errors) for key in _LOG_COUNTS}
        records.append(SweepRecord(sweep=str(r["sweep"]), **counts))
    if errors:
        raise RiskModelError("; ".join(errors))
    log = ConstructionLog(tuple(records))
    model = RiskStructure(
        hazards=hazards,
        states=frozenset(states),
        actions=tuple(sorted(actions.values(), key=lambda a: a.name)),
        transitions=tuple(ordered),
        initial=frozenset(by_label[str(n)] for n in data["initial"]),
        sv=sv,
        situation=situation,
        features=features,
        options=options,
        labels=labels,
    )
    return model, log


#: The counts of a :class:`SweepRecord`, each a row of the model file's log.
_LOG_COUNTS = (
    "increment",
    "states_added",
    "transitions_added",
    "states_total",
    "non_mishap_total",
    "transitions_total",
)

def _key_order(transitions: list[Transition], labels: dict) -> list[Transition]:
    """``transitions`` sorted by key.  Raises :class:`RiskModelError` naming
    the first of them, in file order, whose key an earlier one has."""
    keys = list(map(transition_key, transitions))
    # the rows of a model file without labels stand in strict key order
    if all(map(lt, keys, islice(keys, 1, None))):
        return transitions
    order = sorted(range(len(keys)), key=keys.__getitem__)
    # the sort is stable, so the rows of one key stand in file order: each
    # key's second row follows its first, and the least such index is the
    # first repeat in the file
    repeats = [
        (j, i) for i, j in zip(order, islice(order, 1, None)) if keys[i] == keys[j]
    ]
    if repeats:
        j, i = min(repeats)
        t = transitions[j]
        source = labels.get(t.source, t.source.name)
        target = labels.get(t.target, t.target.name)
        raise RiskModelError(
            f"transitions[{j}]: {source} -{t.action.name}-> {target} "
            f"repeats transitions[{i}]"
        )
    return [transitions[i] for i in order]


def load_model(path: str) -> tuple[RiskStructure, ConstructionLog]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    data = json.loads(text)
    found = _unencodable(text, data)
    del text  # the model is built from ``data`` alone
    if found is not None:
        raise RiskModelError(found)
    return model_from_dict(data)


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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise RiskModelError(f"drop-rule file {path!r} is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise RiskModelError(f"drop-rule file {path!r} must hold a JSON object")
    entries = data.get("drop", [])
    if not isinstance(entries, list):
        raise RiskModelError(f"drop-rule file {path!r}: 'drop' must be a list")
    rules = []
    for i, r in enumerate(entries):
        try:
            action = str(r["action"])  # raises on a non-object entry first
            region, self_loop = r.get("source_region"), r.get("self_loop")
            if self_loop is not None and not isinstance(self_loop, bool):
                raise ValueError(
                    f"self_loop must be true or false, got {type(self_loop).__name__}"
                )
            rules.append(
                DropRule(
                    action=action,
                    source_region=None if region is None else Region(region),
                    self_loop=self_loop,
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RiskModelError(f"drop[{i}]: {exc}") from None
    return tuple(rules)


_REGION_STYLE = {
    Region.SAFE: "solid",
    Region.HAZARDOUS: "dashed",
    Region.MISHAP: "dotted",
}


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_chunks(
    model: RiskStructure, regions: Optional[RegionAssignment] = None
) -> Iterator[str]:
    """The DOT text of :func:`to_dot` in chunks of at most ``_BATCH_ROWS``
    lines."""
    if regions is None:
        regions = assign_regions(model)
    label, states, transitions = _file_order(model)
    yield "digraph risk_structure {\n  rankdir=LR;\n  node [shape=ellipse];\n"
    for batch in _batches(states):
        yield "".join(
            [
                f"  {_dot_quote(label[s.name])} [style={_REGION_STYLE[regions[s]]}"
                + (", peripheries=2];\n" if s in model.initial else "];\n")
                for s in batch
            ]
        )
    edge_labels: dict[tuple, str] = {}
    for batch in _batches(transitions):
        lines = []
        for t in batch:
            key = edge_text_key(t.action.name, t.pr, t.cs)
            text = edge_labels.get(key)
            if text is None:
                text = _dot_quote(t.action.name + weights_text(t.pr, t.cs))
                edge_labels[key] = text
            lines.append(
                f"  {_dot_quote(label[t.source.name])} -> "
                f"{_dot_quote(label[t.target.name])} [label={text}];\n"
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


def to_dot(model: RiskStructure, regions: Optional[RegionAssignment] = None) -> str:
    """Render the model as deterministic DOT; node borders follow the region
    (safe solid, hazardous dashed, mishap dotted), initial states are
    double-bordered, and edges are labeled ``name(pr,cs)``."""
    return "".join(dot_chunks(model, regions))


def save_dot(
    path: str, model: RiskStructure, regions: Optional[RegionAssignment] = None
) -> None:
    """Write :func:`to_dot`'s text; nothing is opened unless all of it encodes
    as UTF-8."""
    _write_utf8(path, dot_chunks(model, regions), "DOT")
