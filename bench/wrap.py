"""Run one riskstruct command with its layer calls traced from outside.

Usage: python3 bench/wrap.py TRACE_FILE ARG...

Imports ``riskstruct.cli`` (timing the import), wraps the public layer
functions in spans, runs ``riskstruct.cli.main(ARG...)`` and exits with its
code.  A span is ``[name, start, end, parent]``; spans and counters stay in
memory until the command ends, then go to TRACE_FILE as JSON.  Span names
are ``<module>.<function>``, so the module is the layer.

A function is wrapped wherever a riskstruct module holds it, so a call
from ``plan`` or ``reduce`` is traced as well as one from ``cli``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

_t0 = time.perf_counter()
import riskstruct.cli as cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

from riskstruct import analysis, construct, core, order, plan, reduce, serialize  # noqa: E402

MODULES = (cli, analysis, construct, core, order, plan, reduce, serialize)

#: Functions traced, by layer module.
TRACED = {
    serialize: ("load_catalog", "load_model", "save_model", "model_to_json",
                "to_dot", "load_drop_rules"),
    construct: ("construct_rs",),
    analysis: ("assign_regions", "mishap_reach_probability", "risk_priority", "reach"),
    reduce: ("quotient", "drop_irrelevant", "collapse_safe_chains"),
    plan: ("plan_mitigations", "make_plan", "is_mitigation_monotonous"),
    order: ("mitigation_lt",),
}


class Recorder:
    """Spans and counters of one command."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        after = AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def install(self) -> None:
        for module, names in TRACED.items():
            layer = module.__name__.rsplit(".", 1)[-1]
            for fn_name in names:
                original = getattr(module, fn_name)
                traced = self.wrap(f"{layer}.{fn_name}", original)
                for holder in MODULES:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, traced)
        core.RiskStructure.outgoing = self.wrap("core.outgoing", core.RiskStructure.outgoing)


def _after_construct(rec: Recorder, args, result) -> None:
    model, log = result
    rec.count("construct.states", len(model.states))
    rec.count("construct.transitions", len(model.transitions))
    for record in log.records:
        if record.sweep == "prune":
            rec.count("construct.pruned_states", -record.states_added)
        else:
            rec.count("construct.sweeps")


def _after_reduce(rec: Recorder, args, result) -> None:
    rec.count("reduce.states_in", len(args[0].states))
    rec.count("reduce.states_out", len(result.states))


AFTER = {
    "construct.construct_rs": _after_construct,
    "serialize.load_model": lambda rec, args, result: rec.count(
        "serialize.model_bytes", os.path.getsize(args[0])),
    "serialize.model_to_json": lambda rec, args, result: rec.count(
        "serialize.model_bytes", len(result.encode("utf-8"))),
    "reduce.quotient": _after_reduce,
    "reduce.drop_irrelevant": _after_reduce,
    "reduce.collapse_safe_chains": _after_reduce,
    "plan.plan_mitigations": lambda rec, args, result: rec.count(
        "plan.plans", len(result)),
}


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    rec.install()
    try:
        code = rec.wrap("cli.main", cli.main)(argv)
    finally:
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"import_s": IMPORT_S, "spans": rec.spans,
                       "counters": rec.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
