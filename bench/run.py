#!/usr/bin/env python3
"""wordbalance benchmark: whole CLI runs measured from outside, plus a traced pass.

    python3 bench/run.py --workload analyze-exact --seed 1 --seconds 42 --trace 0
    python3 bench/run.py --workload verify --seed 1 --seconds 42 --trace 1 --out runs.jsonl
    python3 bench/run.py --compare old.jsonl [new.jsonl]
    python3 bench/run.py --pin-digests

Every op is a fresh `python3 -m wordbalance.cli ...` process, run one at a
time (closed loop, one client). CPU time and peak RSS come per child from
os.wait4. Each served report is checked: five-key schema, no floats, the
digest pinned in digests.json (or, for an unpinned seed, the same digest on
every pass), and the op's oracle. With --trace 0 the last stdout line holds
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of one
untraced pass, one span pass and one tracemalloc pass (see tracer.py).
Metric names, units, directions and bounds are read from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import workloads
from workloads import REFUSED, SERVED, Op

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGESTS = BENCH_DIR / "digests.json"
PINNED_SEEDS = range(10)
SETUP_RUNS = 7
# Every run must end within 180 s; ops still running at this point are killed.
HARD_DEADLINE_S = 170.0
REPORT_KEYS = {"schema_version", "command", "config", "results", "checks"}
EXIT_RESOURCE_LIMIT = 3
# Pass timings are averaged, not taken at their median. On a shared host
# whose speed switches between two levels for seconds at a time, the median
# of a few passes jumps from one level to the other; the mean moves with the
# share of time spent at each.
PASS_TIMINGS = ("wall_s", "cpu_s")
# The program's numpy work is elementwise; a BLAS thread pool per child only
# adds threads, and CPU time, on a machine with two cores.
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


class BenchError(RuntimeError):
    """The program cannot be imported or traced, so nothing can be measured."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---- child processes --------------------------------------------------------

@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float
    timed_out: bool


def child_env(hash_seed: int) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = str(hash_seed)
    env.update(ONE_THREAD)
    return env


def run_child(argv: List[str], hash_seed: int, timeout_s: float) -> Child:
    """Run argv to completion; CPU and max RSS of this child alone, via wait4."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(hash_seed),
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    killer = threading.Timer(max(timeout_s, 0.1), proc.kill)
    killer.start()
    err: List[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    timed_out = not killer.is_alive()
    killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(
        code=proc.returncode,
        stdout=out,
        stderr=err[0],
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        timed_out=timed_out,
    )


def hash_seed(seed: int, *where: object) -> int:
    """PYTHONHASHSEED for one child, derived from --seed and its position."""
    return random.Random("/".join(map(str, (seed, *where)))).randrange(1, 2**32)


# ---- output checks ----------------------------------------------------------

def _no_floats(text: str) -> float:
    raise ValueError(f"float {text} in report")


@dataclass
class Outcome:
    ok: bool
    wrong: Optional[str]  # set when the program gave a wrong or malformed answer
    note: str
    digest: Optional[str]


class Checker:
    """Judges each op's outcome against its expectation and output checks."""

    def __init__(self, pinned: Dict[str, str]):
        self.pinned = pinned
        self.seen: Dict[str, str] = {}

    def judge(self, op: Op, child: Child) -> Outcome:
        if child.timed_out:
            return Outcome(False, "timed out", "killed at the run deadline", None)
        if child.code == 0:
            digest = hashlib.sha256(child.stdout).hexdigest()
            problem = self.check_report(op, child.stdout, digest)
            if problem:
                return Outcome(False, problem, "wrong report", digest)
            if op.expect == REFUSED:
                return Outcome(False, None, "served where a refusal was expected", digest)
            return Outcome(True, None, "served", digest)
        if child.code == EXIT_RESOURCE_LIMIT:
            if child.stdout or len(child.stderr.splitlines()) != 1:
                return Outcome(False, "refusal without a single stderr line", "bad refusal", None)
            if op.expect == SERVED:
                return Outcome(False, None, "refused where service was expected", None)
            return Outcome(True, None, "refused", None)
        return Outcome(False, f"exit code {child.code}", "crashed or rejected", None)

    def check_report(self, op: Op, stdout: bytes, digest: str) -> Optional[str]:
        want = self.pinned.get(op.key) or self.seen.setdefault(op.key, digest)
        if digest != want:
            return "report digest differs from the pinned or first-pass digest"
        try:
            report = json.loads(stdout, parse_float=_no_floats)
        except ValueError as exc:
            return f"report is not float-free JSON: {exc}"
        if not isinstance(report, dict) or set(report) != REPORT_KEYS:
            return "report does not have the five top-level keys"
        if op.oracle:
            return workloads.check_oracle(op.oracle, report)
        return None


def load_pinned() -> Dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


# ---- one run ----------------------------------------------------------------

class Run:
    def __init__(self, workload: str, seed: int, checker: Checker):
        self.workload = workload
        self.seed = seed
        self.ops = workloads.build_ops(workload, seed)
        self.checker = checker
        self.t0 = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.wrong: List[str] = []

    def remaining_s(self) -> float:
        return HARD_DEADLINE_S - (time.perf_counter() - self.t0)

    def cli(self, op: Op) -> List[str]:
        return [sys.executable, "-m", "wordbalance.cli", *op.argv]

    def setup_times(self, runs: int) -> List[float]:
        """Fresh interpreters importing the CLI module; fails when it cannot."""
        times = []
        for i in range(runs):
            child = run_child(
                [sys.executable, "-c", "import wordbalance.cli"],
                hash_seed(self.seed, "setup", i), self.remaining_s(),
            )
            if child.code != 0:
                msg = child.stderr.decode(errors="replace").strip().splitlines()
                raise BenchError(msg[-1] if msg else f"exit code {child.code}")
            times.append(child.wall_s)
        return times

    def run_pass(self, index: int) -> dict:
        ops = []
        for i, op in enumerate(self.ops):
            child = run_child(self.cli(op), hash_seed(self.seed, index, i), self.remaining_s())
            outcome = self.checker.judge(op, child)
            self.attempted += 1
            self.failed += not outcome.ok
            if outcome.wrong:
                self.wrong.append(f"{op.key}: {outcome.wrong}")
            ops.append({
                "op": op.key, "code": child.code, "ok": outcome.ok, "note": outcome.note,
                "digest": outcome.digest, "wall_s": child.wall_s, "cpu_s": child.cpu_s,
                "rss_mb": child.rss_mb,
            })
        return {
            "wall_s": sum(o["wall_s"] for o in ops),
            "cpu_s": sum(o["cpu_s"] for o in ops),
            "peak_rss_mb": max(o["rss_mb"] for o in ops),
            "ops": ops,
        }

    def passes(self, seconds: float) -> List[dict]:
        """Closed loop: start another pass only if it should end in time."""
        start = time.perf_counter()
        done = [self.run_pass(0)]
        while True:
            elapsed = time.perf_counter() - start
            typical = statistics.median(p["wall_s"] for p in done)
            if elapsed + typical > seconds or typical > self.remaining_s() - 5:
                return done
            done.append(self.run_pass(len(done)))


def end_to_end(run: Run, seconds: float) -> Tuple[dict, dict]:
    setup = run.setup_times(SETUP_RUNS)
    passes = run.passes(seconds)
    values = {
        "wall_s": [p["wall_s"] for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "setup_s": setup,
    }
    metrics = {
        name: (statistics.mean if name in PASS_TIMINGS else statistics.median)(v)
        for name, v in values.items()
    }
    metrics["ok_ratio"] = (run.attempted - run.failed) / run.attempted
    return metrics, {"samples": values, "passes": passes}


def _self_times(spans: List[dict]) -> List[float]:
    covered = [0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end_ns"] - s["start_ns"]
    return [(s["end_ns"] - s["start_ns"] - c) / 1e9 for s, c in zip(spans, covered)]


def tracer(mode: str, op: Op, run: Run) -> dict:
    child = run_child(
        [sys.executable, str(BENCH_DIR / "tracer.py"), mode, "--", *op.argv],
        hash_seed(run.seed, "trace", mode, op.key), run.remaining_s(),
    )
    if child.code != 0 or child.timed_out:
        raise BenchError(f"tracer {mode} failed on {op.key}: exit {child.code}")
    result = json.loads(child.stdout.decode().splitlines()[-1])
    result["wall_s"] = child.wall_s
    for hook in result["missing_hooks"]:
        print(f"warning: trace hook {hook} not found; its layer reads 0")
    return result


def per_layer(run: Run, spec: List[dict]) -> Tuple[dict, dict]:
    """One untraced pass, then one span pass and one memory pass per op."""
    run.setup_times(1)
    untraced = run.passes(0.0)[0]
    metrics = {m["name"]: 0 if m["unit"] in ("count", "B") else 0.0 for m in spec}
    all_spans, remainders = [], []
    cost = 0.0
    for i, (op, measured) in enumerate(zip(run.ops, untraced["ops"])):
        traced = tracer("spans", op, run)
        if traced["code"] != measured["code"] or (
            measured["digest"] and traced["digest"] != measured["digest"]
        ):
            run.wrong.append(f"{op.key}: traced run differs from the untraced run")
        cost = traced["span_cost_s"]
        spans = traced["spans"]
        self_times = _self_times(spans)
        for span, self_s in zip(spans, self_times):
            key = "cli.untraced_s" if span["name"] == "cli.main" else span["name"] + "_s"
            metrics[key] += self_s
            for counter, value in span["counters"].items():
                metrics[counter] += value
            if span["name"] == "scan.texts" and span["status"] == "refused":
                metrics["scan.texts_refused"] += 1
            span["op"] = i
        main_s = (spans[0]["end_ns"] - spans[0]["start_ns"]) / 1e9
        metrics["cli.main_s"] += main_s
        metrics["process.overhead_s"] += traced["wall_s"] - main_s - traced["tail_s"]
        metrics["trace.spans"] += len(spans) - 1
        remainders.append({"op": op.key, "cli.main_s": main_s, "untraced_s": self_times[0]})
        all_spans.extend(spans)
        if op.argv[0] != "verify":
            for name, peak in tracer("memory", op, run)["peaks"].items():
                metrics[name] = max(metrics[name], peak)
    metrics["trace.overhead_s"] = metrics["trace.spans"] * cost
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / untraced["wall_s"]
    unknown = set(metrics) - {m["name"] for m in spec}
    if unknown:
        raise BenchError(f"trace produced metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return metrics, {"untraced_pass": untraced, "op_remainders": remainders,
                     "span_cost_s": cost, "spans": all_spans}


# ---- environment and printing -----------------------------------------------

def _loadavg() -> Optional[str]:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    rev = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        rev = done.stdout.strip() or None
    return {
        "python": sys.version.split()[0], "numpy": numpy, "git_rev": rev,
        "nproc": os.cpu_count(), "loadavg_start": _loadavg(),
    }


def high_percentile(values: List[float]) -> Tuple[str, float]:
    """The highest percentile with at least ten samples beyond it, else max."""
    n = len(values)
    ordered = sorted(values)
    for pct in (99, 90):
        if n * (100 - pct) / 100 >= 10:
            return f"p{pct}", ordered[min(n - 1, int(n * pct / 100))]
    return "max", ordered[-1]


def print_end_to_end(spec: dict, run: Run, metrics: dict, detail: dict) -> None:
    samples = detail["samples"]
    for m in spec["end_to_end"]:
        name = m["name"]
        line = f"{run.workload:17} {name:12} {metrics[name]:12.6g} {m['unit']:6}"
        if name in samples:
            label, high = high_percentile(samples[name])
            if name in PASS_TIMINGS:
                line += f" mean; median {statistics.median(samples[name]):.6g};"
            else:
                line += " median;"
            line += f" {label} {high:.6g}; n={len(samples[name])}"
        else:
            line += f" {run.attempted - run.failed}/{run.attempted} ops ok"
        print(line)
    print(f"{run.workload:17} {'fail_ratio':12} {run.failed / run.attempted:12.6g} ratio "
          f" {run.failed}/{run.attempted} ops failed")
    for i, op in enumerate(run.ops):
        rows = [p["ops"][i] for p in detail["passes"]]
        print(f"  op {i}: {op.key[:70]:70} median {statistics.median(r['wall_s'] for r in rows):.3f} s"
              f"  {max(r['rss_mb'] for r in rows):.0f} MB  {rows[0]['note']}")


# ---- compare ----------------------------------------------------------------

def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _read_runs(path: str) -> Dict[str, List[dict]]:
    runs: Dict[str, List[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if record["trace"] == 0:
                    runs[record["workload"]].append(record)
    return runs


def verdict(old: List[dict], new: List[dict], name: str, better: str, bound: float) -> str:
    sign = 1 if better == "lower" else -1
    a = [r["metrics"][name] for r in old]
    b = [r["metrics"][name] for r in new]
    qa, qb = _quartiles(a), _quartiles(b)
    if sign * (qb[1] - qa[1]) > bound * abs(qa[1]):
        return "worse"
    by_seed = {r["seed"]: r["metrics"][name] for r in old}
    pairs = [(by_seed[r["seed"]], r["metrics"][name]) for r in new if r["seed"] in by_seed]
    wins = sum(sign * (x - y) > 0 for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (qa[1] - qb[1]) > qa[2] - qa[0]:
        return "better"
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qa, qb))
    every_run_better = all(sign * (y - x) < 0 for x in a for y in b)
    if spread > bound and not every_run_better:
        return "unresolved"
    return "unchanged"


def compare(paths: List[str]) -> int:
    spec = load_spec()
    sides = [_read_runs(p) for p in paths]
    for workload in workloads.WORKLOADS:
        if not all(workload in side for side in sides):
            continue
        runs = [side[workload] for side in sides]
        for m in spec["end_to_end"]:
            cells = []
            for side in runs:
                q1, q2, q3 = _quartiles([r["metrics"][m["name"]] for r in side])
                spread = (q3 - q1) / abs(q2) if q2 else 0.0
                cells.append(f"{q2:10.5g} [{q1:.5g}, {q3:.5g}] n={len(side)} spread {spread:.3f}")
            line = f"{workload:17} {m['name']:12} {m['unit']:6} " + " | ".join(cells)
            if len(runs) == 2:
                line += "  -> " + verdict(runs[0], runs[1], m["name"], m["better"], m["bound"])
            else:
                line += f"  (bound {m['bound']})"
            print(line)
        for side, path in zip(runs, paths):
            failed = sum(r["failed"] for r in side)
            attempted = sum(r["attempted"] for r in side)
            print(f"{workload:17} {'fail_ratio':12} {failed}/{attempted} in {path}")
    return 0


# ---- pinning ----------------------------------------------------------------

def pin_digests() -> int:
    """Record the report digest of every served op for the pinned seeds."""
    checker = Checker({})
    pinned: Dict[str, str] = {}
    done = set()
    for workload in workloads.WORKLOADS:
        for seed in PINNED_SEEDS:
            run = Run(workload, seed, checker)
            for op in run.ops:
                if op.key in done:
                    continue
                done.add(op.key)
                child = run_child(run.cli(op), hash_seed(seed, "pin"), 600.0)
                if child.code == 0:
                    pinned[op.key] = hashlib.sha256(child.stdout).hexdigest()
                print(f"{child.code} {op.key}", file=sys.stderr)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


# ---- entry point ------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full run record to this JSON-lines file")
    parser.add_argument("--compare", nargs="+", metavar="RUNS.jsonl",
                        help="summarize one runs file, or compare two (old, new)")
    parser.add_argument("--pin-digests", action="store_true",
                        help=f"rewrite {DIGESTS.name} from the current program")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args.compare[:2])
    if args.pin_digests:
        return pin_digests()
    if args.workload is None:
        parser.error("--workload is required")

    if not (ROOT / "src" / "wordbalance" / "cli.py").is_file():
        print(f"error: no wordbalance sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    env = environment()
    run = Run(args.workload, args.seed, Checker(load_pinned()))
    print(f"python {env['python']}  numpy {env['numpy']}  rev {env['git_rev']}  "
          f"nproc {env['nproc']}  loadavg {env['loadavg_start']}")
    try:
        if args.trace:
            metrics, detail = per_layer(run, spec["per_layer"])
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            for name, unit in units.items():
                value = metrics[name]
                shown = value if isinstance(value, int) else f"{value:.6g}"
                print(f"{run.workload:17} {name:48} {shown:>14} {unit}")
            for i, row in enumerate(detail["op_remainders"]):
                print(f"  op {i}: {row['op'][:70]:70} cli.main {row['cli.main_s']:.3f} s"
                      f"  untraced {row['untraced_s']:.4f} s")
        else:
            metrics, detail = end_to_end(run, args.seconds)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            print_end_to_end(spec, run, metrics, detail)
    except BenchError as exc:
        print(f"error: cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    env["loadavg_end"] = _loadavg()
    print(f"loadavg at end {env['loadavg_end']}")
    for problem in run.wrong:
        print(f"WRONG {problem}")
    result = {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    if args.out:
        record = {"workload": run.workload, "seed": args.seed, "trace": args.trace,
                  "env": env, "metrics": metrics, "attempted": run.attempted,
                  "failed": run.failed, "wrong": run.wrong, **detail}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
