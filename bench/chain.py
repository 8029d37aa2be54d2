"""Synthetic "chain" hazard catalogs, generated in code.

A chain catalog has n hazards H0..H(n-1), each with k mitigated phases.
Every hazard has one endangerment 0->e and the mitigations e->m1,
m(j-1)->mj and a direct e->mk.  Each pair of neighbouring hazards has one
mishap, with severities cycling m, c, f.  ``max_subset_size`` is 2.

The seed draws only probabilities and costs, so the numbers of states and
transitions never depend on it.  The draws also keep the amount of work
the same for every seed:

- endangerment pr in [0.02, 0.05] and mishap pr in [0.55, 0.9] put every
  state in the same probability band (a mishap one step away is high, one
  endangerment away is medium, two are low), so every risk priority is the
  same;
- every mitigation costs the same drawn unit, so the planner ranks and
  prunes paths the same way.

Run ``python3 bench/chain.py --check`` to build n=3..6 at k=2 with the
riskstruct CLI and assert the shapes in SHAPES.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

#: (states, transitions) of the built model for n hazards at k=2.
SHAPES = {3: (72, 200), 4: (304, 1072), 5: (1280, 5376), 6: (5376, 25856)}

SEVERITIES = "mcf"


def chain_catalog(n: int, k: int, seed: int) -> dict:
    """The chain catalog with n hazards and k mitigated phases each."""
    rnd = random.Random(seed)
    unit = rnd.randint(1, 9)
    hazards = [f"H{i}" for i in range(n)]
    endangerments, mitigations, mishaps = [], [], []
    for h in hazards:
        endangerments.append(
            {"name": f"f_{h}", "activates": [h], "from_phases": ["0"],
             "pr": round(rnd.uniform(0.02, 0.05), 3)}
        )
        mitigations.append(
            {"name": f"m1_{h}", "mitigates": {h: "m1"}, "guard": {h: ["e"]},
             "pr": round(rnd.uniform(0.9, 0.99), 3), "cs": unit}
        )
        for j in range(2, k + 1):
            mitigations.append(
                {"name": f"m{j}_{h}", "mitigates": {h: f"m{j}"},
                 "guard": {h: [f"m{j - 1}"]},
                 "pr": round(rnd.uniform(0.9, 0.99), 3), "cs": unit}
            )
        mitigations.append(
            {"name": f"d_{h}", "mitigates": {h: f"m{k}"}, "guard": {h: ["e"]},
             "pr": round(rnd.uniform(0.8, 0.9), 3), "cs": unit}
        )
    for i, (a, b) in enumerate(zip(hazards, hazards[1:])):
        mishaps.append(
            {"name": f"x_{a}_{b}", "requires": [a, b], "sets": [a, b],
             "pr": round(rnd.uniform(0.55, 0.9), 3),
             "sv": SEVERITIES[i % len(SEVERITIES)]}
        )
    return {
        "hazards": [{"id": h, "n_mitigations": k} for h in hazards],
        "endangerments": endangerments,
        "mishaps": mishaps,
        "mitigations": mitigations,
        "options": {"max_subset_size": 2},
    }


def write_catalog(path: str, n: int, k: int, seed: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chain_catalog(n, k, seed), fh, indent=1)


def check(root: str) -> int:
    """Build every shape in SHAPES for two seeds and compare the counts."""
    work = os.path.join(root, "bench", ".work", "chain-check")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    failures = 0
    try:
        for n, expected in SHAPES.items():
            for seed in (0, 1):
                write_catalog(os.path.join(work, "catalog.json"), n, 2, seed)
                proc = subprocess.run(
                    [sys.executable, "-m", "riskstruct.cli", "build",
                     "catalog.json", "-o", "model.json"],
                    cwd=work, env=env, capture_output=True, text=True,
                )
                if proc.returncode != 0:
                    print(f"n={n} seed={seed}: build exited {proc.returncode}: "
                          f"{proc.stderr.strip()}")
                    failures += 1
                    continue
                with open(os.path.join(work, "model.json"), encoding="utf-8") as fh:
                    model = json.load(fh)
                got = (len(model["states"]), len(model["transitions"]))
                ok = got == expected
                failures += not ok
                print(f"n={n} k=2 seed={seed}: {got[0]} states, {got[1]} transitions"
                      f" ({'ok' if ok else f'expected {expected[0]}/{expected[1]}'})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failures else 0


def main() -> int:
    if sys.argv[1:] != ["--check"]:
        print("usage: python3 bench/chain.py --check", file=sys.stderr)
        return 2
    return check(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


if __name__ == "__main__":
    sys.exit(main())
