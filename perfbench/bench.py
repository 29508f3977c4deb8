#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the shapex CLI and server.

    python3 perfbench/bench.py run --workload W --seed N --seconds S --trace 0|1 [--out FILE] [--size K]
    python3 perfbench/bench.py diff OLD.jsonl NEW.jsonl

`run` builds `shapex` and the benchmark harness from the checkout it sits
in, generates the workload's inputs from the seed, measures for the given
seconds and checks every output against reference verdicts the program did
not produce. Its last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end metrics of BENCHMARK.json, measured on the real
`shapex validate` process or `shapex serve` over HTTP; with `--trace 1` they
are the per-layer metrics, read from an in-process replay of the same
pipeline with a span around every layer call. `--out FILE` also appends the
result, tagged with workload, seed and trace, to a JSON-lines file that
`diff` compares. `--size` overrides the input size (used by the self-test).

See perfbench/README.md for the workloads, the metrics and which
end-to-end metric each per-layer metric should move.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli-uniprot", "cli-recursive", "serve-mixed")
# Set-up is repeated SETUP_REPEATS times (input generation: also for at
# least SETUP_SECONDS) and its median reported.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
MIN_SAMPLES = 3
STEP_TIMEOUT = 150

UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "throughput": "1/s"}
OPS = ("map", "delta", "validate", "shacl", "reload")
PER_LAYER = {
    "rdf.parse_s": "s",
    "rdf.compact_ms": "ms",
    "rdf.triples": "count",
    "rdf.terms": "count",
    "rdf.delta_apply_ms": "ms",
    "shex.parse_ms": "ms",
    "core.compile_ms": "ms",
    "core.type_s": "s",
    "core.node_checks": "count",
    "core.derivative_steps": "count",
    "core.gfp_reruns": "count",
    "core.dfa_hit_ratio": "ratio",
    "core.profile_hit_ratio": "ratio",
    "core.sched.steals": "count",
    "core.sched.steal_ratio": "ratio",
    "core.sched.utilization": "ratio",
    "core.report_s": "s",
    "core.report.rechecks": "count",
    "core.report_mb": "MB",
    "core.report.delta_render_ms": "ms",
    "core.incremental.plan_ms": "ms",
    "core.incremental.revalidate_ms": "ms",
    "core.incremental.retyped_pairs": "count",
    "core.incremental.reuse_ratio": "ratio",
    "core.calculus.diff_ms": "ms",
    "core.calculus.transplanted": "count",
    "shacl.compile_ms": "ms",
    "shacl.validate_ms": "ms",
    "shacl.report_ms": "ms",
    **{f"server.registry.{op}_ms": "ms" for op in OPS},
    **{f"server.http.{op}_ms": "ms" for op in OPS},
    **{f"server.{op}_p50_ms": "ms" for op in OPS},
    **{f"server.{op}_p90_ms": "ms" for op in OPS},
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """A failure that stops the run without a result."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Builds `shapex` and the harness; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        raise BenchError(f"{ROOT} holds no shapex source tree to build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "shapex-cli", "--bin", "shapex"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(ROOT / "perfbench" / "harness" / "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = target_dir() / "release"
    return release / "shapex", release / "perfbench-harness"


def harness(exe, *args, timeout=STEP_TIMEOUT):
    """Runs a harness command; returns its JSON output."""
    done = subprocess.run([str(exe), *map(str, args)], cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        raise BenchError(f"harness {args[0]} failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def timed_process(cmd, stdout, timeout=STEP_TIMEOUT):
    """Runs `cmd` to completion; returns (exit status, wall s, peak RSS MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([str(c) for c in cmd], cwd=ROOT, stdout=stdout,
                            stderr=subprocess.DEVNULL)
    status, rss_mb = wait_rusage(proc, timeout)
    return status, time.perf_counter() - start, rss_mb


def wait_rusage(proc, timeout):
    """Waits for `proc` (killing it after `timeout` s); returns its exit
    code and peak resident set in MB. The wait blocks rather than polls,
    so the runner takes no CPU time from the process it measures."""
    expired = threading.Event()

    def expire():
        expired.set()
        proc.kill()

    watchdog = threading.Timer(timeout, expire)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if expired.is_set():
        raise BenchError(f"{proc.args[0]} did not finish within {timeout} s")
    return proc.returncode, usage.ru_maxrss / 1024


def median(values):
    return statistics.median(values) if values else 0.0


# --- workloads ---------------------------------------------------------------

class Tally:
    """Operations attempted and failed, summed over the harness commands
    of a run; the harness applies every gate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, out):
        """Adds the counts of one harness command's output."""
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.errors.extend(out["errors"][:5 - len(self.errors)])


def failure(error):
    """The counts of one failed operation that no harness command saw."""
    return {"attempted": 1, "failed": 1, "errors": [error]}


def run_cli(shapex, exe, workload, seed, seconds, trace, size, tally):
    work = target_dir() / "perfbench" / workload
    gen = ["gen", "--workload", workload, "--seed", seed, "--dir", work]
    if size:
        gen += ["--size", size]
    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        start = time.perf_counter()
        jobs = harness(exe, *gen)["jobs"]
        setups.append(time.perf_counter() - start)
    triples = json.loads((work / "expected.json").read_text())["triples"]
    cmd = [shapex, "validate", "--schema", work / "schema.shex", "--data", work / "data.nt",
           "--jobs", jobs, "--report", "json"]
    check = ["check", "--workload", workload, "--dir", work, "--report"]

    def one_run():
        with open(work / "cli_report.json", "wb") as out:
            status, wall, rss = timed_process(cmd, out)
        tally.add(failure(f"exit status {status}") if status != 0 else
                  harness(exe, *check, "cli_report.json"))
        return wall, rss

    one_run()  # warm-up: untimed, still checked
    budget = seconds / 2 if trace else seconds
    walls, rss = [], []
    start = time.perf_counter()
    while len(walls) < MIN_SAMPLES or time.perf_counter() - start < budget:
        wall, peak = one_run()
        walls.append(wall)
        rss.append(peak)
    wall_s = median(walls)
    if not trace:
        return {
            "wall_s": wall_s,
            "peak_rss_mb": median(rss),
            "setup_s": median(setups),
            "throughput": triples / wall_s,
        }
    layers = harness(exe, "replay", "--workload", workload, "--seed", seed,
                     "--seconds", seconds / 2, "--dir", work)
    tally.add(harness(exe, *check, "replay_report.json", "--same-as", "cli_report.json"))
    return layers


class Server:
    """A `shapex serve` process on an ephemeral port."""

    def __init__(self, shapex, work, jobs):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(shapex), "serve", "--schema", str(work / "default.shex"),
             "--data", str(work / "default.nt"), "--addr", "127.0.0.1:0",
             "--workers", "2", "--jobs", str(jobs)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        self.addr = None
        ready = threading.Event()

        def drain():
            for line in self.proc.stderr:
                if "listening on" in line and not ready.is_set():
                    self.addr = line.rsplit(" ", 1)[-1].strip()
                    ready.set()
            ready.set()

        self.reader = threading.Thread(target=drain, daemon=True)
        self.reader.start()
        if not ready.wait(30) or self.addr is None:
            self.stop()
            raise BenchError("shapex serve did not start")
        self.start_s = time.perf_counter() - self.started

    def stop(self):
        """Drains the server; returns its peak RSS in MB."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            _, rss = wait_rusage(self.proc, 30)
        except ChildProcessError:
            rss = 0.0
        self.reader.join(5)
        self.proc.stderr.close()
        return rss


def run_serve(shapex, exe, seed, seconds, trace, size, tally):
    work = target_dir() / "perfbench" / "serve-mixed"
    jobs = harness(exe, "gen", "--workload", "serve-mixed", "--seed", seed, "--dir", work)["jobs"]
    scenario = ["--seed", seed] + (["--size", size] if size else [])
    setups = []
    for i in range(SETUP_REPEATS):
        server = Server(shapex, work, jobs)
        try:
            last = i == SETUP_REPEATS - 1
            budget = seconds / 2 if trace else seconds
            args = ["--seconds", budget, "--dump", work] if last else ["--setup-only"]
            out = harness(exe, "client", "--addr", server.addr, *scenario, *args,
                          timeout=STEP_TIMEOUT)
        finally:
            rss = server.stop()
        setups.append(server.start_s + out["setup_s"])
        tally.add(out)
    ops = out["ops"]
    if not trace:
        return {
            "wall_s": out["round_p50_s"],
            "peak_rss_mb": rss,
            "setup_s": median(setups),
            "throughput": out["rps"],
        }
    layers = harness(exe, "replay", "--workload", "serve-mixed", *scenario,
                     "--seconds", seconds / 2, "--dir", work)
    tally.add(layers)
    for name in ("validate", "shacl", "delta"):
        tally.add(harness(exe, "check", "--workload", "serve-mixed", "--dir", work,
                          "--report", f"replay_{name}.json", "--same-as", f"client_{name}.json"))
    for op in OPS:
        layers[f"server.{op}_p50_ms"] = ops[op]["p50_ms"]
        layers[f"server.{op}_p90_ms"] = ops[op]["p90_ms"]
        layers[f"server.http.{op}_ms"] = ops[op]["p50_ms"] - layers[f"server.registry.{op}_ms"]
    return layers


def run(args):
    shapex, exe = build()
    args.seed %= 2**64  # the harness takes an unsigned 64-bit seed
    tally = Tally()
    if args.workload == "serve-mixed":
        values = run_serve(shapex, exe, args.seed, args.seconds, args.trace, args.size, tally)
    else:
        values = run_cli(shapex, exe, args.workload, args.seed, args.seconds, args.trace,
                         args.size, tally)
    units = PER_LAYER if args.trace else UNITS
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    for error in tally.errors:
        log(f"FAILED: {error}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    if args.out:
        tagged = dict(result, workload=args.workload, seed=args.seed, trace=args.trace)
        with open(args.out, "a") as f:
            f.write(json.dumps(tagged) + "\n")
    print(json.dumps(result), flush=True)


# --- diff --------------------------------------------------------------------

def load_runs(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            r = json.loads(line)
            runs.setdefault(r.get("workload", "?"), []).append(r)
    return runs


def summaries(runs):
    """Per metric: (median, spread, sample count), where spread is the
    distance between the first and third quartile as a share of the
    median."""
    values = {}
    for r in runs:
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    out = {}
    for name, v in values.items():
        mid = median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (mid, mid, mid)
        out[name] = (mid, (q3 - q1) / mid if mid else 0.0, len(v))
    return out


def diff(old_path, new_path):
    """Prints, per workload, the median of every metric in two result
    files side by side, each with its quartile spread, and the change
    relative to the old median (the base). An end-to-end metric is
    flagged when it is worse by more than its bound, or unresolved when
    either side's spread exceeds the bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    old, new = load_runs(old_path), load_runs(new_path)
    nan = (float("nan"), float("nan"), 0)
    for workload in sorted(set(old) | set(new)):
        a, b = summaries(old.get(workload, [])), summaries(new.get(workload, []))
        print(f"\n== {workload}")
        print(f"{'metric':30} {'unit':>6} {'old':>11} {'spread':>7} {'new':>11} {'spread':>7}"
              f" {'delta':>11} {'delta %':>8}  runs   flag")
        for name in sorted(set(a) | set(b), key=lambda n: (n not in bounds, n)):
            unit = UNITS.get(name) or PER_LAYER.get(name, "")
            (va, sa, na), (vb, sb, nb) = a.get(name, nan), b.get(name, nan)
            change = vb - va
            pct = change / va * 100 if va else float("nan")
            flag = ""
            if name in bounds and va:
                worse = change / va if better.get(name) == "lower" else -change / va
                if max(sa, sb) > bounds[name]:
                    flag = "unresolved: spread exceeds bound"
                elif worse > bounds[name]:
                    flag = f"WORSE than bound {bounds[name]:.0%}"
            print(f"{name:30} {unit:>6} {va:11.4g} {sa:7.1%} {vb:11.4g} {sb:7.1%}"
                  f" {change:+11.4g} {pct:+7.1f}%  {na:>2}/{nb:<2}  {flag}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True, choices=WORKLOADS)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--seconds", type=float, required=True)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out")
    r.add_argument("--size", type=int)
    d = sub.add_parser("diff")
    d.add_argument("old")
    d.add_argument("new")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            run(args)
        else:
            diff(args.old, args.new)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
