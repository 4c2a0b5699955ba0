"""End-to-end benchmark of the graphreal command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...

Run from the root of a source checkout.  Each workload is a fixed round of
``python3 -m graphreal`` invocations built from ``--seed``; rounds repeat
until ``--seconds`` have passed.  A closed loop with one client: one CLI
process at a time, each timed from spawn to exit, interpreter start-up
included.  Every output is checked against computations made apart from
the program (``checks.py``).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` each round runs once plainly and
once under ``traced.py`` and the JSON carries the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRIVIAL = ["test", "-s", "1 1"]
SETUP_CALLS_PER_ROUND = 2
ADJACENCY_REPEATS = 3
CALL_TIMEOUT_S = 120


@dataclass
class Call:
    rc: int
    stdout: str
    stderr: str
    seconds: float
    spans: str | None = None  # span file of a traced call


class Cli:
    """Runs ``graphreal`` (or its traced twin) from the checkout's src/.

    Every process is started by ``spawner.py``, which stays small, so that
    the children's peak RSS is their own and not this process's.
    """

    def __init__(self, scratch: Path):
        self.scratch = scratch
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("GRAPHREAL_SEED", None)
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], env=env, cwd=ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.spans_made = 0

    def _ask(self, request: dict) -> dict:
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("spawner.py exited")
        return json.loads(reply)

    def run(self, cmd: list[str], stdin: str | None = None) -> Call:
        reply = self._ask({"cmd": cmd, "stdin": stdin or "", "timeout": CALL_TIMEOUT_S})
        return Call(reply["rc"], reply["stdout"], reply["stderr"], reply["seconds"])

    def call(self, argv: list[str], stdin: str | None = None, traced: bool = False) -> Call:
        """Run one invocation, under ``traced.py`` when ``traced``."""
        if not traced:
            return self.run([sys.executable, "-m", "graphreal", *argv], stdin)
        self.spans_made += 1
        spans_path = str(self.scratch / f"spans-{self.spans_made}.bin")
        call = self.run([sys.executable, str(HERE / "traced.py"), spans_path, *argv], stdin)
        call.spans = spans_path
        return call

    def peak_rss_mb(self) -> float:
        return self._ask({"peak": True})["peak_rss_kb"] / 1024

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()


class Verifier:
    """Checks each output once; an identical later output shares the verdict."""

    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.seen: dict[tuple, tuple[bool, object]] = {}
        self.failed = 0
        self.attempted = 0
        self.correct = True
        self.problems: list[str] = []

    def verdict(self, index: int, argv: list[str], call: Call) -> tuple[bool, object]:
        op = self.wl.ops[index]
        if "Traceback" in call.stderr:
            return False, "traceback: " + call.stderr.strip().splitlines()[-1]
        if call.rc not in op.exit_codes:
            return False, f"exit code {call.rc}: {call.stderr.strip()[:200]}"
        if call.rc != op.exit_codes[0]:
            return True, None  # an accepted refusal; its stdout is not checked
        key = (index, tuple(argv), hashlib.sha256(call.stdout.encode()).hexdigest())
        if key not in self.seen:
            try:
                self.seen[key] = (True, op.check(call.stdout))
            except checks.CheckError as exc:
                self.seen[key] = (False, str(exc))
        return self.seen[key]

    def round(self, argvs: list[list[str]], calls: list[Call]) -> list[bool]:
        """Verdicts for one round of calls; updates the failure tallies."""
        ok, results = [], []
        for i, (argv, call) in enumerate(zip(argvs, calls)):
            good, result = self.verdict(i, argv, call)
            ok.append(good)
            results.append(result)
            if not good:
                self.note(i, result)
        if all(ok):
            for i in self.wl.round_check(results, [c.stdout for c in calls]):
                ok[i] = False
                self.note(i, "disagrees with the other outputs of its round")
        self.attempted += len(calls)
        self.failed += ok.count(False)
        return ok

    def note(self, index: int, reason) -> None:
        op = self.wl.ops[index]
        if not op.known_fault:
            self.correct = False
        msg = f"op {index} ({' '.join(op.argv[:1])}): {reason}"
        if msg not in self.problems:
            self.problems.append(msg)


def round_argvs(wl: workloads.Workload, index: int) -> list[list[str]]:
    return [op.round_argv(index) for op in wl.ops]


def run_round(cli: Cli, wl, argvs, traced=False) -> list[Call]:
    return [cli.call(argv, op.stdin, traced) for op, argv in zip(wl.ops, argvs)]


def items_rate(wl, rounds) -> float:
    """Items over the wall time of the calls that made them, summed over
    every round of the run.  The sum varies less from run to run than
    per-operation medians: the machine's speed drifts within a run, and
    MR restarts make sample times bimodal."""
    items = seconds = 0.0
    for calls, ok in rounds:
        for op, call, good in zip(wl.ops, calls, ok):
            if op.timed:
                items += op.items if good else 0
                seconds += call.seconds
    return items / seconds


def measure(wl, cli: Cli, verifier: Verifier, seconds: float) -> dict:
    setup, rounds = [], []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() + round_s / 2 < deadline:
        started = time.perf_counter()
        # Set-up calls are spread over the run, like the rounds, so that
        # both see the same share of a shared machine's slow spells.
        for _ in range(SETUP_CALLS_PER_ROUND):
            setup.append(setup_call(cli, verifier))
        argvs = round_argvs(wl, len(rounds))
        calls = run_round(cli, wl, argvs)
        rounds.append((calls, verifier.round(argvs, calls)))
        round_s = time.perf_counter() - started
    return {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (cli.peak_rss_mb(), "MB"),
        "items_per_s": (items_rate(wl, rounds), "1/s"),
        "_rounds": len(rounds),
    }


def setup_call(cli: Cli, verifier: Verifier) -> float:
    """Time one trivial call: interpreter start plus ``import graphreal``."""
    call = cli.call(TRIVIAL)
    if call.rc != 0 or call.stdout != "graphical\n":
        verifier.correct = False
        verifier.problems.append(f"set-up call: exit {call.rc}, {call.stdout!r}")
    return call.seconds


def measure_traced(wl, cli: Cli, verifier: Verifier, seconds: float, seed: int) -> dict:
    per_round = []
    deadline = time.perf_counter() + seconds
    while not per_round or time.perf_counter() + round_s / 2 < deadline:
        started = time.perf_counter()
        argvs = round_argvs(wl, len(per_round))
        plain = run_round(cli, wl, argvs)
        verifier.round(argvs, plain)
        traced = run_round(cli, wl, argvs, traced=True)
        verifier.round(argvs, traced)
        totals = spans.SpanTotals()
        for call in traced:
            if os.path.exists(call.spans):
                totals.add_file(call.spans)
                os.remove(call.spans)
        layer = spans.layer_metrics(totals)
        layer["tracing_overhead_s"] = (
            sum(c.seconds for c in traced) - sum(c.seconds for c in plain))
        per_round.append(layer)
        round_s = time.perf_counter() - started

    multisets = json.dumps(workloads.adjacency_multisets(seed))
    adjacency = []
    for _ in range(ADJACENCY_REPEATS):
        call = cli.run([sys.executable, str(HERE / "traced.py"), "--adjacency-sets"], multisets)
        if call.rc != 0:
            raise RuntimeError(f"adjacency-set timing failed: {call.stderr.strip()[-300:]}")
        adjacency.append(json.loads(call.stdout)["seconds"])

    out = {}
    for name, unit in spans.PER_LAYER:
        if name == "enumeration.adjacency_sets_s":
            value = statistics.median(adjacency)
        else:
            value = statistics.median(r[name] for r in per_round)
        out[name] = (value, unit)
    out["_rounds"] = len(per_round)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = workloads.build(name, seed)
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="perfbench-", dir=ROOT / ".bench_build"))
    cli = Cli(scratch)
    try:
        cli.call(TRIVIAL)  # compiles the package's bytecode on a fresh checkout
        verifier = Verifier(wl)
        if trace:
            metrics = measure_traced(wl, cli, verifier, seconds, seed)
        else:
            metrics = measure(wl, cli, verifier, seconds)
    finally:
        cli.close()
        shutil.rmtree(scratch, ignore_errors=True)
    rounds = metrics.pop("_rounds")
    for problem in verifier.problems:
        print(f"{name}: FAILED {problem}")
    print(f"{name}: seed={seed} rounds={rounds} attempted={verifier.attempted} "
          f"failed={verifier.failed} correct={verifier.correct}")
    for metric, (value, unit) in metrics.items():
        alias = f" ({workloads.ITEM_METRIC[name]})" if metric == "items_per_s" else ""
        print(f"{name}: {metric}{alias} = {value:.6g} {unit}")
    return {
        "correct": verifier.correct,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "graphreal" / "__init__.py").is_file():
        print(f"error: no graphreal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # One process per workload, so that peak RSS is per workload.
        for name in workloads.BUILDERS:
            subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], check=True)
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
