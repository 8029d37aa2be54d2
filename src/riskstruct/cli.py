"""Command-line front end.

Commands: build, analyze, regions, plan, reduce, diff, export-dot, validate.
All output is deterministic for a given input.

Exit codes: 0 success (diff: identical), 1 I/O failure, 2 invalid input or
usage, 3 (diff only) differences found.  Failures print one
``riskstruct: ...`` line to stderr; an invalid catalog prints one
``<path>: ...`` line per defect.

A command runs with the cyclic garbage collector off: the rows it builds
hold no reference cycles, so reference counting frees them, and the few
cyclic objects of one command are left for the process's exit.
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .core import BandThresholds, RiskModelError, RiskStructure, embed_state, state_parser
from .analysis import analysis_table, assign_regions
from .construct import CatalogInvalid, construct_rs
from .plan import is_mitigation_monotonous, plan_mitigations
from .reduce import collapse_safe_chains, drop_irrelevant, quotient, EQUIVALENCES
from .serialize import (
    dot_chunks,
    fmt_prob,
    load_catalog,
    load_drop_rules,
    load_model,
    model_chunks,
    save_dot,
    save_model,
    weights_text,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_DIFFERENT = 3


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as one ``riskstruct: ...`` line, exit code 2."""

    def error(self, message: str):
        self.exit(EXIT_INVALID, f"riskstruct: {message}\n")


def _parse_bands(text: str) -> BandThresholds:
    values = {}
    for part in text.split(","):
        key, sep, val = part.partition("=")
        if not sep or key not in ("l", "h"):
            raise argparse.ArgumentTypeError(
                f"bands must look like l=0.01,h=0.1, got {text!r}"
            )
        try:
            values[key] = float(val)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a probability: {val!r}") from None
    if set(values) != {"l", "h"}:
        raise argparse.ArgumentTypeError("bands need both l= and h=")
    try:
        return BandThresholds(l_below=values["l"], h_at_least=values["h"])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _set_options(holder, **options):
    """``holder``, a catalog or a model, with each of ``options`` that is not
    None set in its options."""
    options = {name: value for name, value in options.items() if value is not None}
    return replace(holder, options=replace(holder.options, **options)) if options else holder


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load(load, what: str, path: str):
    """``load(path)``.  A file that cannot be read is a ``_CliError`` with
    exit code 1 and an invalid one with exit code 2, naming the file; an
    invalid catalog stays a :class:`CatalogInvalid`, with the file's name
    before each of its lines."""
    try:
        return load(path)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read {what} {path!r}: {exc}") from None
    except CatalogInvalid as exc:
        raise CatalogInvalid([f"{path}: {message}" for message in exc.errors]) from None
    except RiskModelError as exc:
        raise _CliError(EXIT_INVALID, f"invalid {what} {path!r}: {exc}") from None


def _save(save, what: str, path: str, *content) -> None:
    """``save(path, *content)``.  A file that cannot be written is a
    ``_CliError`` with exit code 1, naming ``what`` and the file."""
    try:
        save(path, *content)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot write {what}{path!r}: {exc}") from None


def _load_model(path: str):
    return _load(load_model, "model", path)


def _fail(code: int, message: str) -> int:
    print(f"riskstruct: {message}", file=sys.stderr)
    return code


def cmd_validate(args) -> int:
    _load(load_catalog, "catalog", args.catalog)
    print(f"{args.catalog}: valid")
    return EXIT_OK


def cmd_build(args) -> int:
    catalog = _load(load_catalog, "catalog", args.catalog)
    catalog = _set_options(catalog, max_subset_size=args.max_subset, bands=args.bands)
    model, log = construct_rs(catalog)
    for record in log.records:
        print(
            f"increment {record.increment} {record.sweep}: "
            f"+{record.states_added} states +{record.transitions_added} transitions "
            f"({record.non_mishap_total} non-mishap states, "
            f"{record.states_total} states, {record.transitions_total} transitions)"
        )
    out = args.output or "model.json"
    _save(save_model, "model ", out, model, log)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    model = _set_options(_load_model(args.model)[0], bands=args.bands)
    regions = assign_regions(model)
    table = analysis_table(model)
    for state in model.sorted_states():
        print(
            f"{model.label(state)}\t{regions[state].value}\t"
            f"{fmt_prob(table.pr[state]):.6g}\t{table.rp[state].value}"
        )
    return EXIT_OK


def cmd_regions(args) -> int:
    model, _ = _load_model(args.model)
    regions = assign_regions(model)
    label = model.label
    sys.stdout.writelines(
        f"{label(state)}\t{regions[state].value}\n" for state in model.sorted_states()
    )
    return EXIT_OK


def cmd_plan(args) -> int:
    model = _set_options(_load_model(args.model)[0], bands=args.bands)
    start = model.state_named(args.from_state)
    plans = plan_mitigations(model, start, allow_ordinary=args.allow_ordinary)
    for plan in plans:
        monotonous = is_mitigation_monotonous(model, plan, slack=args.slack)
        print(
            f"{model.label(plan.end)}\t{','.join(plan.action_names())}\t"
            f"{plan.max_rp.value}\t{plan.total_cost}\t"
            f"{fmt_prob(plan.attainment):.6g}\t{'Y' if monotonous else 'N'}"
        )
    return EXIT_OK


def cmd_reduce(args) -> int:
    if args.require_equal_rp and args.equiv is None:
        return _fail(EXIT_INVALID, "--require-equal-rp needs --equiv")
    model, log = _load_model(args.model)
    if args.equiv is not None:
        model = quotient(model, args.equiv, require_equal_rp=args.require_equal_rp)
    if args.drop is not None:
        model = drop_irrelevant(model, _load(load_drop_rules, "drop-rule file", args.drop))
    if args.collapse_chains:
        model = collapse_safe_chains(model)
    if args.output:
        _save(save_model, "model ", args.output, model, log)
        print(f"wrote {args.output}")
    else:
        sys.stdout.writelines(model_chunks(model, log))
    return EXIT_OK


def cmd_diff(args) -> int:
    model_a, _ = _load_model(args.model_a)
    model_b, _ = _load_model(args.model_b)
    ids_a = {h.id for h in model_a.hazards}
    ids_b = {h.id for h in model_b.hazards}
    if not ids_a <= ids_b:
        return _fail(
            EXIT_INVALID,
            f"incompatible hazard sets: {sorted(ids_a - ids_b)} only in {args.model_a}",
        )
    for h in model_a.hazards:
        if model_b.hazard(h.id).n_mitigations != h.n_mitigations:
            return _fail(
                EXIT_INVALID,
                f"incompatible hazard {h.id!r}: different n_mitigations",
            )

    def embedded_labels(model: RiskStructure) -> dict[str, str]:
        # a state's identity, by its name, is its display label with every
        # member name embedded into the wider hazard set, and every other
        # part of the label as it is; an unlabelled state is its own only
        # member, so it is embedded without re-parsing
        parse, mapping = state_parser(model.hazards), {}

        def member(part: str) -> str:
            try:
                return embed_state(parse(part), model_b.hazards).name
            except RiskModelError:  # the part names no state over the hazards
                return part

        labels = {s.name: label for s, label in model.labels.items()}
        for s in model.states:
            label = labels.get(s.name)
            if label is None:
                mapping[s.name] = embed_state(s, model_b.hazards).name
            else:
                mapping[s.name] = "|".join(sorted(map(member, label.split("|"))))
        return mapping

    map_a, map_b = embedded_labels(model_a), embedded_labels(model_b)
    states_a = set(map_a.values())
    states_b = set(map_b.values())

    # Each (action, pr, cs) is rounded and written once: the edge that
    # transitions compare by, and the text of their line around the source
    # and target.
    edges: dict[tuple, tuple] = {}

    def transition_edges(model, mapping) -> dict[tuple, tuple]:
        # each transition's key, by embedded labels, mapped to its edge
        keyed = {}
        for t in model.transitions:
            text_key = (t.action.name, t.pr, t.cs)
            edge = edges.get(text_key)
            if edge is None:
                pr = None if t.pr is None else fmt_prob(t.pr)
                weights = weights_text(pr, t.cs)
                edge = edges[text_key] = (
                    (t.action.name, pr, t.cs),
                    f" -{t.action.name}-> ",
                    f" {weights}" if weights else "",
                )
            keyed[(mapping[t.source.name], edge[0], mapping[t.target.name])] = edge
        return keyed

    trans_a, trans_b = transition_edges(model_a, map_a), transition_edges(model_b, map_b)

    def fmt_key(key, keyed) -> str:
        source, _, target = key
        _, arrow, suffix = keyed[key]
        return f"{source}{arrow}{target}{suffix}"

    # Each key is formatted once; keys that format alike print the same line,
    # so sorting the lines is sorting the keys by their text.  One writelines
    # call replaces a print per line without also holding the whole text.
    lines = [f"- state {name}" for name in sorted(states_a - states_b)]
    lines += [f"+ state {name}" for name in sorted(states_b - states_a)]
    removed, added = trans_a.keys() - trans_b.keys(), trans_b.keys() - trans_a.keys()
    lines += sorted(f"- transition {fmt_key(key, trans_a)}" for key in removed)
    lines += sorted(f"+ transition {fmt_key(key, trans_b)}" for key in added)
    sys.stdout.writelines(f"{line}\n" for line in lines)
    return EXIT_DIFFERENT if lines else EXIT_OK


def cmd_export_dot(args) -> int:
    model, _ = _load_model(args.model)
    if args.output:
        _save(save_dot, "", args.output, model)
    else:
        sys.stdout.writelines(dot_chunks(model))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="riskstruct",
        description="Build, analyze, reduce, and plan over risk structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a catalog file")
    p.add_argument("catalog")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("build", help="construct a model from a catalog")
    p.add_argument("catalog")
    p.add_argument("-o", "--output", help="model file to write (default model.json)")
    p.add_argument(
        "--max-subset", type=_int_at_least(1), help="cap on simultaneous hazard subsets"
    )
    p.add_argument("--bands", type=_parse_bands, help="band thresholds l=<p>,h=<p>")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("analyze", help="regions, mishap probability, risk priority")
    p.add_argument("model")
    p.add_argument("--bands", type=_parse_bands, help="band thresholds l=<p>,h=<p>")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("regions", help="region of every state")
    p.add_argument("model")
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("plan", help="lowest-risk mitigation plans from a state")
    p.add_argument("model")
    p.add_argument("--from", dest="from_state", required=True, metavar="STATE")
    p.add_argument("--bands", type=_parse_bands, help="band thresholds l=<p>,h=<p>")
    p.add_argument("--allow-ordinary", action="store_true")
    p.add_argument(
        "--slack", type=_int_at_least(0), default=0, help="tolerated rp increases"
    )
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("reduce", help="quotient, drop rules, chain collapse")
    p.add_argument("model")
    p.add_argument("--equiv", choices=EQUIVALENCES)
    p.add_argument("--require-equal-rp", action="store_true")
    p.add_argument("--drop", help="drop-rule file")
    p.add_argument("--collapse-chains", action="store_true")
    p.add_argument("-o", "--output", help="model file to write (default stdout)")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("diff", help="content diff of two models")
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("export-dot", help="deterministic DOT rendering")
    p.add_argument("model")
    p.add_argument("-o", "--output", help="file to write (default stdout)")
    p.set_defaults(func=cmd_export_dot)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # a command builds tens of thousands of acyclic rows, which the cyclic
    # collector would only rescan; it is back in its previous state however
    # the command ends
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv: Optional[Sequence[str]]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        return _fail(exc.code, str(exc))
    except CatalogInvalid as exc:
        sys.stderr.writelines(f"{line}\n" for line in exc.errors)
        return EXIT_INVALID
    except RiskModelError as exc:
        return _fail(EXIT_INVALID, str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
