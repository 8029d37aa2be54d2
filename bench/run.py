"""Benchmark of riskstruct command sessions.

Usage, from the root of the repository:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--record FILE]

One client replays an analyst's session in a closed loop: each command of
the session runs as its own ``python3 -m riskstruct.cli`` process, and the
next starts when the previous has exited.  Passes of the session repeat
until the next one would end after ``--seconds``; there are at least
MIN_PASSES, so that every median has more than one pass behind it, unless
the next pass would end after HARD_STOP_S, which keeps a slow program's run
within the 180 s a run may take.  A pass that HARD_STOP_S cuts short is
left out, its commands not counted as attempted; only the first pass is
kept when cut, and its commands not run count as failed.
Commands run with ``PYTHONHASHSEED`` set to the workload seed.  The run
prints one line per metric, with its unit and the samples
behind it, and then, as its last line, the JSON result.

Workloads (``--seed`` draws the chain catalogs' probabilities and costs):

- ``tunnel-cli``: every subcommand on the bundled tunnel-exit catalogs; the
  seed is ignored.  Per-command fixed costs (interpreter, import, JSON I/O)
  dominate.
- ``chain-build``: build, regions, two reductions, DOT export and a diff on
  the chain catalog with n=6, k=2 (5,376 states).  Construction and
  serialization dominate.
- ``chain-analyze``: analyze, the rp-preserving quotient and the planner on
  the chain catalog with n=4, k=1 (108 states), built during set-up.
  Per-state analysis dominates.  (At k=2, 304 states, one pass takes about
  20 s, so a run holds one or two passes and its medians were too noisy.)

End-to-end metrics (``--trace 0``):

- ``setup_s``: median time of SETUP_REPEATS preparations of the inputs
  (catalogs written, then one warm-up command: ``validate``, or the
  ``build`` of the chain-analyze model);
- ``pipeline_s``: median wall time of one pass;
- ``op_p50_ms``: median wall time of one command process, launch to exit;
- ``op_tail_ms``: the highest percentile with at least ten samples beyond
  it (the 11th-largest command), or the maximum below 20 commands;
- ``peak_rss_mb``: largest resident set of any command process (rusage);
- ``success_rate``: commands that succeeded over commands attempted, that
  is one minus the error rate.

A command fails when it exits with another code than expected, writes a
traceback, fails a check of its output, exceeds COMMAND_LIMIT_S, or its
input is missing.  Checks run after each pass, outside the timed region:
every output digest (stdout and files written) must equal that of the
first pass and, at DEFAULT_SEED, the one recorded in ``digests.json``
(fixed data; a change of the program's output is an edit to that file);
``analyze`` and ``plan`` output is recomputed by ``oracle.py``; the built
chain model must have the shape in ``chain.SHAPES``.

With ``--trace 1`` untraced and traced passes alternate.  A traced pass
runs every command under ``wrap.py``, which wraps the layers' public
functions in spans; the run reports the per-layer metrics in LAYER_METRICS
(medians over traced passes of per-pass sums) and ``trace.overhead_s``,
the traced minus the untraced ``pipeline_s``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import chain
import oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")
CATALOGS = os.path.join(SRC, "riskstruct", "catalogs")
DIGESTS = os.path.join(BENCH, "digests.json")
WRAP = os.path.join(BENCH, "wrap.py")

DEFAULT_SEED = 0
SETUP_REPEATS = 15
COMMAND_LIMIT_S = 60.0
HARD_STOP_S = 160.0  # no command runs past this many seconds after the start
MIN_PASSES = 2
TRACEBACK = b"Traceback (most recent call last)"


# --- sessions -------------------------------------------------------------


@dataclass
class Command:
    name: str
    args: list[str]
    expect: int = 0
    output: Optional[str] = None  # file written, besides stdout
    check: Optional[Callable[[str, str], list[str]]] = None  # (pass dir, stdout)

    @property
    def inputs(self) -> list[str]:
        return [a for a in self.args if a.endswith(".json") and a != self.output]


def _analyze_check(model: str):
    return lambda cwd, out: oracle.check_analyze(os.path.join(cwd, model), out)


def _plan_check(model: str, start: str):
    return lambda cwd, out: oracle.check_plans(os.path.join(cwd, model), start, out)


def _shape_check(model: str, n: int):
    def check(cwd: str, out: str) -> list[str]:
        with open(os.path.join(cwd, model), encoding="utf-8") as fh:
            data = json.load(fh)
        got = (len(data["states"]), len(data["transitions"]))
        return [] if got == chain.SHAPES[n] else [f"built {got}, expected {chain.SHAPES[n]}"]
    return check


def _prepare_tunnel(inputs: str, seed: int) -> list[Command]:
    for name in ("tunnel-exit-r2.json", "tunnel-exit-r3.json", "tunnel-exit-r2-drops.json"):
        shutil.copyfile(os.path.join(CATALOGS, name), os.path.join(inputs, name))
    return [Command("setup-validate", ["validate", "tunnel-exit-r2.json"])]


def _session_tunnel() -> list[Command]:
    r2, r3 = "../inputs/tunnel-exit-r2.json", "../inputs/tunnel-exit-r3.json"
    return [
        Command("validate-r2", ["validate", r2]),
        Command("validate-r3", ["validate", r3]),
        Command("build-r2", ["build", r2, "-o", "r2.json"], output="r2.json"),
        Command("build-r3", ["build", r3, "-o", "r3.json"], output="r3.json"),
        Command("analyze-r2", ["analyze", "r2.json"], check=_analyze_check("r2.json")),
        Command("regions-r2", ["regions", "r2.json"]),
        Command("plan-r2", ["plan", "r2.json", "--from", "A:e,L:e"],
                check=_plan_check("r2.json", "A:e,L:e")),
        Command("plan-r3", ["plan", "r3.json", "--from", "A:e,L:e,R:e"],
                check=_plan_check("r3.json", "A:e,L:e,R:e")),
        Command("reduce-r2", ["reduce", "r2.json", "--equiv", "m", "--require-equal-rp",
                              "--drop", "../inputs/tunnel-exit-r2-drops.json",
                              "--collapse-chains"]),
        Command("diff-r2-r3", ["diff", "r2.json", "r3.json"], expect=3),
        Command("export-dot-r2", ["export-dot", "r2.json"]),
    ]


def _prepare_chain_build(inputs: str, seed: int) -> list[Command]:
    chain.write_catalog(os.path.join(inputs, "chain.json"), 6, 2, seed)
    return [Command("setup-validate", ["validate", "chain.json"])]


def _session_chain_build() -> list[Command]:
    return [
        Command("build", ["build", "../inputs/chain.json", "-o", "model.json"],
                output="model.json", check=_shape_check("model.json", 6)),
        Command("regions", ["regions", "model.json"]),
        Command("reduce-m", ["reduce", "model.json", "--equiv", "m", "-o", "quotient.json"],
                output="quotient.json"),
        Command("reduce-collapse", ["reduce", "model.json", "--collapse-chains",
                                    "-o", "collapsed.json"], output="collapsed.json"),
        Command("export-dot", ["export-dot", "model.json", "-o", "model.dot"],
                output="model.dot"),
        Command("diff", ["diff", "quotient.json", "model.json"], expect=3),
    ]


def _prepare_chain_analyze(inputs: str, seed: int) -> list[Command]:
    chain.write_catalog(os.path.join(inputs, "chain.json"), 4, 1, seed)
    return [Command("setup-build", ["build", "chain.json", "-o", "model.json"],
                    output="model.json")]


def _session_chain_analyze() -> list[Command]:
    model, start = "../inputs/model.json", "H0:e,H1:e,H2:e,H3:e"
    return [
        Command("analyze", ["analyze", model], check=_analyze_check(model)),
        Command("reduce-m-rp", ["reduce", model, "--equiv", "m", "--require-equal-rp",
                                "-o", "quotient.json"], output="quotient.json"),
        Command("plan", ["plan", model, "--from", start], check=_plan_check(model, start)),
    ]


@dataclass
class Workload:
    prepare: Callable[[str, int], list[Command]]  # writes inputs, returns set-up commands
    session: Callable[[], list[Command]]
    uses_seed: bool = True


WORKLOADS = {
    "tunnel-cli": Workload(_prepare_tunnel, _session_tunnel, uses_seed=False),
    "chain-build": Workload(_prepare_chain_build, _session_chain_build),
    "chain-analyze": Workload(_prepare_chain_analyze, _session_chain_analyze),
}


# --- running commands -----------------------------------------------------


@dataclass
class Outcome:
    command: Command
    wall_s: float = 0.0
    rss_kb: int = 0
    code: Optional[int] = None  # None: not launched
    timed_out: bool = False
    errors: list[str] = field(default_factory=list)
    incorrect: bool = False  # an error about the output, not about time or inputs
    cut: bool = False  # not run, or stopped, at HARD_STOP_S
    digest: str = ""

    def fail(self, message: str, incorrect: bool = True) -> None:
        self.errors.append(f"{self.command.name}: {message}")
        self.incorrect = self.incorrect or incorrect


class Runner:
    def __init__(self, started: float, seed: int) -> None:
        self.hard_stop = started + HARD_STOP_S
        path = os.environ.get("PYTHONPATH")
        # the hash seed orders sets and dicts, so fixing it per workload seed
        # makes the work, and the layers' counts, repeat exactly
        self.env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""),
                        PYTHONHASHSEED=str(seed))

    def launch(self, args: list[str], cwd: str, stdout, stderr, limit: float):
        """Run one command; returns (wall seconds, exit code, max RSS in KB,
        timed out).  The child is killed after ``limit`` seconds."""
        lock, done, killed = threading.Lock(), [False], [False]
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=cwd, env=self.env, stdout=stdout, stderr=stderr)

        def kill() -> None:
            with lock:
                if not done[0]:  # not reaped yet, so the pid is still ours
                    killed[0] = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(limit, kill)
        timer.start()
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            done[0] = True
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss, killed[0]

    def run(self, command: Command, cwd: str, trace_file: Optional[str]) -> Outcome:
        outcome = Outcome(command)
        missing = [p for p in command.inputs if not os.path.exists(os.path.join(cwd, p))]
        if missing:
            outcome.fail(f"input {missing[0]} is missing", incorrect=False)
            return outcome
        limit = min(COMMAND_LIMIT_S, self.hard_stop - time.perf_counter())
        if limit <= 0:
            outcome.cut = True
            outcome.fail("not run: the run's time limit is reached", incorrect=False)
            return outcome
        if trace_file is None:
            args = [sys.executable, "-m", "riskstruct.cli", *command.args]
        else:
            args = [sys.executable, WRAP, trace_file, *command.args]
        base = os.path.join(cwd, command.name)
        with open(base + ".stdout", "wb") as out, open(base + ".stderr", "wb") as err:
            wall, code, rss, timed_out = self.launch(args, cwd, out, err, limit)
        outcome.wall_s, outcome.code, outcome.rss_kb = wall, code, rss
        outcome.timed_out = timed_out
        if timed_out and limit < COMMAND_LIMIT_S:
            outcome.cut = True
            outcome.fail("stopped at the run's time limit", incorrect=False)
        elif timed_out:
            outcome.fail(f"exceeded the {limit:.0f} s limit", incorrect=False)
        return outcome


# --- passes ---------------------------------------------------------------


@dataclass
class Pass:
    traced: bool
    wall_s: float
    outcomes: list[Outcome]
    layers: dict[str, float] = field(default_factory=dict)
    imports: list[float] = field(default_factory=list)


def _digest(*paths: str) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        h.update(b"\0")
    return h.hexdigest()


def check_outcome(outcome: Outcome, cwd: str) -> None:
    """Exit code, traceback, digest and oracle checks of one command."""
    command = outcome.command
    if outcome.code is None or outcome.timed_out:
        return
    base = os.path.join(cwd, command.name)
    with open(base + ".stderr", "rb") as fh:
        if TRACEBACK in fh.read():
            outcome.fail("wrote a traceback")
    if outcome.code != command.expect:
        outcome.fail(f"exit code {outcome.code}, expected {command.expect}")
        return
    files = [base + ".stdout"]
    if command.output is not None:
        if not os.path.exists(os.path.join(cwd, command.output)):
            outcome.fail(f"did not write {command.output}")
            return
        files.append(os.path.join(cwd, command.output))
    outcome.digest = _digest(*files)
    if command.check is not None:
        with open(base + ".stdout", encoding="utf-8") as fh:
            for error in command.check(cwd, fh.read()):
                outcome.fail(error)


def run_pass(runner: Runner, work: str, index: int, session: list[Command],
             traced: bool) -> Pass:
    cwd = os.path.join(work, f"pass{index}")
    os.makedirs(cwd)
    traces = {c.name: os.path.join(cwd, c.name + ".trace") if traced else None
              for c in session}
    start = time.perf_counter()
    outcomes = [runner.run(c, cwd, traces[c.name]) for c in session]
    result = Pass(traced, time.perf_counter() - start, outcomes)
    for outcome in outcomes:  # outside the timed region
        check_outcome(outcome, cwd)
    if traced:
        for name, path in traces.items():
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    trace = json.load(fh)
                result.imports.append(trace["import_s"])
                _add_layers(result.layers, trace)
        _derive_layers(result.layers)
    shutil.rmtree(cwd)
    return result


# --- per-layer metrics ----------------------------------------------------

#: name -> unit, in report order.
LAYER_METRICS = {
    "cli.import_s": "s", "cli.self_s": "s",
    "serialize.load_catalog_s": "s", "serialize.load_model_s": "s",
    "serialize.save_model_s": "s", "serialize.to_dot_s": "s",
    "serialize.model_bytes": "B",
    "construct.construct_rs_s": "s", "construct.states": "count",
    "construct.transitions": "count", "construct.sweeps": "count",
    "construct.pruned_states": "count", "construct.states_per_s": "1/s",
    "core.outgoing_calls": "count", "core.outgoing_s": "s",
    "analysis.assign_regions_s": "s", "analysis.mishap_reach_probability_calls": "count",
    "analysis.risk_priority_calls": "count", "analysis.reach_calls": "count",
    "analysis.self_s": "s",
    "reduce.quotient_s": "s", "reduce.drop_irrelevant_s": "s",
    "reduce.collapse_safe_chains_s": "s", "reduce.states_kept_ratio": "ratio",
    "plan.plan_mitigations_s": "s", "plan.make_plan_calls": "count",
    "plan.plans_per_make_plan": "ratio", "plan.is_mitigation_monotonous_s": "s",
    "order.mitigation_lt_calls": "count",
    "trace.overhead_s": "s",
}


def _add_layers(totals: dict[str, float], trace: dict) -> None:
    """Add one command's spans and counters to the pass totals: per span
    name its inclusive time (``<name>_s``) and calls (``<name>_calls``), per
    layer its self time (``<layer>.self_s``)."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    for (name, start, end, _), inner in zip(spans, child):
        layer = name.split(".", 1)[0]
        totals[f"{name}_s"] = totals.get(f"{name}_s", 0.0) + end - start
        totals[f"{name}_calls"] = totals.get(f"{name}_calls", 0) + 1
        totals[f"{layer}.self_s"] = totals.get(f"{layer}.self_s", 0.0) + end - start - inner
    for name, value in trace["counters"].items():
        totals[name] = totals.get(name, 0) + value


def _derive_layers(totals: dict[str, float]) -> None:
    def ratio(a: str, b: str) -> float:
        return totals.get(a, 0) / totals[b] if totals.get(b) else 0.0

    totals["construct.states_per_s"] = ratio("construct.states", "construct.construct_rs_s")
    totals["reduce.states_kept_ratio"] = ratio("reduce.states_out", "reduce.states_in")
    totals["plan.plans_per_make_plan"] = ratio("plan.plans", "plan.make_plan_calls")


# --- statistics and report ------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, which is the 11th-largest sample.  Below 20 samples
    that would fall under the median, so the maximum is given instead."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return 100.0, ordered[-1]
    return 100 * (n - 10) / n, ordered[n - 11]


def _commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def _setup(workload: Workload, work: str, seed: int, runner: Runner) -> list[float]:
    """Prepare the inputs SETUP_REPEATS times; returns each duration."""
    inputs = os.path.join(work, "inputs")
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        start = time.perf_counter()
        os.makedirs(inputs)
        for command in workload.prepare(inputs, seed):
            outcome = runner.run(command, inputs, None)
            check_outcome(outcome, inputs)
            if outcome.errors:
                raise RuntimeError("set-up failed: " + "; ".join(outcome.errors))
        times.append(time.perf_counter() - start)
    return times


def measure(name: str, seed: int, seconds: float,
            traced: bool) -> tuple[int, list[float], list[Pass]]:
    """Set up, then run passes until the next would end after ``seconds``
    (at least MIN_PASSES, alternating untraced and traced ones when
    ``traced``); returns the seed used, the set-up times and the passes."""
    started = time.perf_counter()
    workload = WORKLOADS[name]
    seed = seed if workload.uses_seed else DEFAULT_SEED
    runner = Runner(started, seed)
    work = os.path.join(BENCH, ".work", f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times = _setup(workload, work, seed, runner)
        session = workload.session()
        passes: list[Pass] = []
        start = time.perf_counter()
        while True:
            begun = time.perf_counter()
            kind = traced and len(passes) % 2 == 1
            done = run_pass(runner, work, len(passes), session, kind)
            cut = any(o.cut for o in done.outcomes)
            if passes and cut:
                break
            passes.append(done)
            now = time.perf_counter()
            if cut or now + (now - begun) > runner.hard_stop:
                break
            if len(passes) >= MIN_PASSES and now - start + (now - begun) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if traced and not any(p.traced for p in passes):
        raise RuntimeError("no traced pass ended within the run's time limit")
    return seed, setup_times, passes


def summarize(traced: bool, setup_times: list[float], passes: list[Pass]) -> dict:
    """Metrics with units and the samples behind them."""
    plain = [p for p in passes if not p.traced]
    walls = [o.wall_s for p in plain for o in p.outcomes if o.code is not None]
    metrics: dict[str, dict] = {}

    def put(metric: str, value: float, unit: str, basis: str) -> None:
        metrics[metric] = {"value": value, "unit": unit, "basis": basis}

    pipeline = statistics.median(p.wall_s for p in plain)
    if not traced:
        attempted = sum(len(p.outcomes) for p in plain)
        failed = sum(1 for p in plain for o in p.outcomes if o.errors)
        put("setup_s", statistics.median(setup_times), "s",
            f"median of {len(setup_times)} set-ups")
        put("pipeline_s", pipeline, "s", f"median of {len(plain)} passes")
        put("op_p50_ms", 1000 * statistics.median(walls), "ms",
            f"median of {len(walls)} commands")
        p, value = tail(walls)
        put("op_tail_ms", 1000 * value, "ms", f"p{p:.4g} of {len(walls)} commands")
        rss = max(o.rss_kb for p in plain for o in p.outcomes)
        put("peak_rss_mb", rss / 1024, "MB", f"max of {len(walls)} commands")
        put("success_rate", (attempted - failed) / attempted, "ratio",
            f"{attempted - failed} of {attempted} commands; error_rate "
            f"{failed / attempted:.4g}")
        return metrics
    traced_passes = [p for p in passes if p.traced]
    basis = f"median of {len(traced_passes)} traced passes"
    for metric, unit in LAYER_METRICS.items():
        if metric == "cli.import_s":
            samples = [s for p in traced_passes for s in p.imports]
            put(metric, statistics.median(samples) if samples else 0.0, unit,
                f"median of {len(samples)} commands")
        elif metric == "trace.overhead_s":
            put(metric, statistics.median(p.wall_s for p in traced_passes) - pipeline,
                unit, f"traced minus untraced pipeline_s, {basis} and "
                f"{len(plain)} untraced")
        else:
            put(metric, statistics.median(p.layers.get(metric, 0) for p in traced_passes),
                unit, basis)
    return metrics


def _golden(name: str, seed: int) -> Optional[dict]:
    if seed != DEFAULT_SEED or not os.path.exists(DIGESTS):
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(name)


def check_digests(passes: list[Pass], golden: Optional[dict]) -> None:
    """Every digest must match the first pass's and the recorded one."""
    first: dict[str, str] = {}
    for p in passes:
        for o in p.outcomes:
            if not o.digest:
                continue
            expected = first.setdefault(o.command.name, o.digest)
            if o.digest != expected:
                o.fail("output differs from the first pass")
            elif golden is not None and golden.get(o.command.name) not in (None, o.digest):
                o.fail(f"output differs from the one recorded for seed {DEFAULT_SEED}")


def main() -> int:
    parser = argparse.ArgumentParser(description="riskstruct command-session benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the full run record to this JSON file")
    args = parser.parse_args()
    if not os.path.exists(os.path.join(SRC, "riskstruct", "cli.py")):
        print(f"bench: no riskstruct sources under {SRC}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    try:
        seed, setup_times, passes = measure(args.workload, args.seed, args.seconds, traced)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    check_digests(passes, _golden(args.workload, seed))
    metrics = summarize(traced, setup_times, passes)
    outcomes = [o for p in passes for o in p.outcomes]
    failed = [o for o in outcomes if o.errors]
    meta = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "commit": _commit(), "passes": len(passes),
        "client": "1, closed loop",
    }
    print("# " + "  ".join(f"{k}={v}" for k, v in meta.items()))
    for metric, m in metrics.items():
        print(f"{metric:42s} {m['value']:>16.6f} {m['unit']:6s} ({m['basis']})")
    for o in failed:
        for error in o.errors:
            print(f"FAILED {error}")
    result = {
        "correct": not any(o.incorrect for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, **result, "metrics": metrics,
                       "errors": [e for o in failed for e in o.errors],
                       "commands": [[i, o.command.name, o.wall_s, o.code, o.rss_kb]
                                    for i, p in enumerate(passes) for o in p.outcomes]},
                      fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
