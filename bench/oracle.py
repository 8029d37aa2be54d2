"""Independent checks of ``analyze`` and ``plan`` output.

Reads the model file as plain JSON and recomputes everything without
importing riskstruct:

- Pr(s), the best path product of reaching a mishap, by fixed-point
  iteration of max-product over the transition list (not best-first
  search);
- the risk priority, from the band of Pr(s) and the least severe
  reachable mishap;
- the region, when the model's region policy is ``no_active``.

A plan line is followed transition by transition from the start state, and
its cost, attainment, worst risk priority and monotonicity are recomputed.
A probability within a relative 1e-9 of a band threshold may fall in either
band, since another product order can land on either side; such a state
admits both risk priorities.
"""

from __future__ import annotations

import json

RANKS = {"m": 0, "c": 1, "f": 2}
SEVERITY = "mcf"
REL_TOL = 1e-5  # printed probabilities carry six significant digits


def _phases(label: str) -> list[str]:
    return [entry.split(":", 1)[1] for member in label.split("|")
            for entry in member.split(",")]


class Model:
    """The parts of a model file the checks need, keyed by state label."""

    def __init__(self, path: str) -> None:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        self.labels = [s["label"] for s in data["states"]]
        self.kinds = {a["name"]: a["class"] for a in data["actions"]}
        self.transitions = [
            (t["source"], t["action"], t["target"],
             1.0 if t["pr"] is None else t["pr"], t["cs"] or 0)
            for t in data["transitions"]
        ]
        self.sv = data["sv"]
        self.options = data["options"]
        self.mishaps = {s for s in self.labels if "em" in _phases(s)}
        self.successors: dict[str, list[str]] = {s: [] for s in self.labels}
        for source, _, target, _, _ in self.transitions:
            self.successors[source].append(target)
        self.pr = self._reach_probability()
        self.rp = {s: self._risk_priority(s) for s in self.labels}

    def _reach_probability(self) -> dict[str, float]:
        pr = {s: 1.0 if s in self.mishaps else 0.0 for s in self.labels}
        changed = True
        while changed:
            changed = False
            for source, _, target, p, _ in self.transitions:
                if source in self.mishaps:
                    continue
                candidate = p * pr[target]
                if candidate > pr[source]:
                    pr[source] = candidate
                    changed = True
        return pr

    def _reachable_mishaps(self, state: str) -> set[str]:
        seen, frontier = {state}, [state]
        while frontier:
            for target in self.successors[frontier.pop()]:
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return seen & self.mishaps

    def bands(self, probability: float) -> set[str]:
        """The band of a probability, or both bands next to a threshold."""
        low, high = self.options["bands"]["l_below"], self.options["bands"]["h_at_least"]
        out = set()
        for p in (probability * (1 - 1e-9), probability * (1 + 1e-9)):
            out.add("l" if p < low else "h" if p >= high else "m")
        return out

    def _risk_priority(self, state: str) -> set[str]:
        """Possible risk priorities: high keeps the least severe reachable
        mishap's severity, medium lowers it one step, low makes it marginal."""
        if state in self.mishaps:
            return {self.sv[state]}
        reachable = self._reachable_mishaps(state)
        if not reachable:
            return {"m"}
        least = min((self.sv[s] for s in reachable), key=RANKS.__getitem__)
        shift = {"h": 0, "m": 1, "l": 2}
        return {SEVERITY[max(RANKS[least] - shift[b], 0)] for b in self.bands(self.pr[state])}

    def region(self, state: str) -> str:
        phases = _phases(state)
        if "em" in phases:
            return "mishap"
        return "hazardous" if "e" in phases else "safe"


def _close(printed: str, value: float) -> bool:
    return abs(float(printed) - value) <= REL_TOL * max(abs(value), 1e-300)


def check_analyze(model_path: str, stdout: str) -> list[str]:
    """Errors in the ``analyze`` lines of ``stdout``; empty when all hold."""
    model = Model(model_path)
    errors = []
    lines = stdout.splitlines()
    if len(lines) != len(model.labels):
        errors.append(f"analyze printed {len(lines)} lines for {len(model.labels)} states")
    check_region = model.options.get("region_policy") == "no_active"
    for line in lines:
        label, region, pr, rp = line.split("\t")
        if label not in model.pr:
            errors.append(f"analyze: unknown state {label}")
            continue
        if check_region and region != model.region(label):
            errors.append(f"analyze {label}: region {region}, oracle {model.region(label)}")
        if not _close(pr, model.pr[label]):
            errors.append(f"analyze {label}: Pr {pr}, oracle {model.pr[label]:.6g}")
        if rp not in model.rp[label]:
            errors.append(f"analyze {label}: rp {rp}, oracle {sorted(model.rp[label])}")
    return errors[:20]


def check_plans(model_path: str, start: str, stdout: str) -> list[str]:
    """Errors in the ``plan`` lines of ``stdout`` for plans from ``start``."""
    model = Model(model_path)
    by_step = {(s, a): (t, p, c) for s, a, t, p, c in model.transitions}
    errors = []
    lines = stdout.splitlines()
    if not lines:
        errors.append(f"plan from {start} printed no plan")
    ends = set()
    for line in lines:
        end, actions, max_rp, cost, attainment, monotone = line.split("\t")
        state, total, product, rps = start, 0, 1.0, [model.rp[start]]
        for action in actions.split(","):
            step = by_step.get((state, action))
            if step is None or model.kinds[action] != "mitigation":
                errors.append(f"plan to {end}: {action} is no mitigation from {state}")
                break
            state, p, c = step
            total += c
            product *= p
            rps.append(model.rp[state])
        else:
            low = max(min(RANKS[r] for r in rp) for rp in rps)
            high = max(max(RANKS[r] for r in rp) for rp in rps)
            if state != end:
                errors.append(f"plan to {end}: its actions end in {state}")
            if int(cost) != total:
                errors.append(f"plan to {end}: cost {cost}, oracle {total}")
            if not _close(attainment, product):
                errors.append(f"plan to {end}: attainment {attainment}, oracle {product:.6g}")
            if not low <= RANKS[max_rp] <= high:
                errors.append(f"plan to {end}: max rp {max_rp}, oracle {SEVERITY[low]}")
            if all(len(rp) == 1 for rp in rps):
                ranks = [RANKS[next(iter(rp))] for rp in rps]
                rises = any(b > a for a, b in zip(ranks, ranks[1:]))
                if (monotone == "N") != rises:
                    errors.append(f"plan to {end}: monotone {monotone} disagrees with the oracle")
        if end in ends:
            errors.append(f"plan: two plans to {end}")
        ends.add(end)
    return errors[:20]

