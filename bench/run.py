#!/usr/bin/env python3
"""Benchmark recurquot end to end, and per layer in a separate traced run.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload quotient-ladder --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):
quotient-ladder, hadamard-batch, index-scan, cli-cold.

One client runs operations in a closed loop: the next starts when the
previous one has returned.  Library operations run in a worker process
under a per-operation cap and an address-space limit; cli-cold spawns
``python -m recurquot`` once per operation.  Every output is checked by
an oracle in the parent; a wrong answer makes the run exit with code 1.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` the run measures the same
operations untraced and then traced, checks that both give identical
outputs, and reports per-layer metrics computed from spans recorded
around calls into the library's modules.  Full results, with machine
details, go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gzip
import itertools
import json
import multiprocessing
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# The per-operation cap.  At this commit every operation outside the two
# quotient-ladder cliff rungs takes under 0.3 s, and the capped totient
# rung takes about 5 s.  The cliff rungs' cases spread from 0.01 s to many
# minutes with no gap to put a cap in; about 1 in 30 of them ends within a
# factor 1.5 of 2 s, where a busy host can move it across the cap.
CAP_S = 2.0
# A worker stuck in one long big-integer operation is killed this long
# after the cap; the alarm inside the worker handles everything else.
GRACE_S = 1.0
MEMORY_LIMIT = 1 << 30
# At least this many operations per run, so that ten lie beyond p95.
MIN_OPS = 200
# Set-ups measured per run; setup_s is their median.
SETUPS = 5
OUT_DIR = Path(".bench_out")
# Timings are scaled to a host that runs worker.reference_task in this
# time.  The task is timed in the process that runs the operations, at
# most 50 ms before each operation (and around every set-up), so the drift
# of a shared host's speed, which on a 2-vCPU shared host swings by half
# within seconds, cancels out, while a change in the library's own cost
# does not.  Timing it only at the start and end of each round left
# index-scan's figures spread four times as wide.  cli-cold instead scales
# by a bare interpreter start (see SpawnClient.run), against BARE_START_S.
# Unscaled latencies go to the result file.
REFERENCE_S = 0.002
BARE_START_S = 0.05
CALIBRATIONS = 5


class WorkerClient:
    """Library operations in a worker process (``python3 bench/worker.py``).

    Each round gets a fresh worker, so its resident high-water mark is
    that round's alone; a worker killed at the cap is reaped with its
    resource usage, then replaced.
    """

    def __init__(self):
        self.ops = []
        self.tracing = False
        self.process = None
        self.conn = None

    def _start(self):
        self.conn, child = multiprocessing.Pipe()
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(child.fileno()),
             str(Path("src").resolve()), str(MEMORY_LIMIT), str(CAP_S)],
            pass_fds=(child.fileno(),),
        )
        child.close()
        self._request(("load", self.ops))
        if self.tracing:
            self._request(("trace",))

    def _request(self, message):
        self.conn.send(message)
        if self.conn.recv() != ("ready",):
            raise RuntimeError(f"worker refused {message[0]!r}")

    def load(self, ops):
        """Start a fresh worker holding one round's operations."""
        self.close()
        self.ops = [(kind, payload) for kind, payload, _ in ops]
        self._start()

    def enable_tracing(self):
        self.tracing = True
        if self.process is not None:
            self._request(("trace",))

    def run(self, index: int):
        self.conn.send(("op", index))
        try:
            if self.conn.poll(CAP_S + GRACE_S):
                reply = self.conn.recv()
                if reply[0] == "memory":
                    self._kill()
                    self._start()
                return reply
            status = "timeout"
        except (EOFError, OSError):
            status = "error"
        rss = self._kill()
        self._start()
        return status, CAP_S, None, [], {}, rss, None

    def _kill(self) -> int:
        """Kill the worker and reap it; returns its peak resident set in KiB."""
        self.process.kill()
        # wait4, unlike Popen.wait, also returns the child's peak RSS.
        _, status, usage = os.wait4(self.process.pid, 0)
        self.process.returncode = os.waitstatus_to_exitcode(status)
        self.conn.close()
        self.process = None
        return usage.ru_maxrss

    def close(self):
        if self.process is None:
            return
        try:
            self.conn.send(("stop",))
            self.process.wait(5)
            self.conn.close()
            self.process = None
        except (OSError, subprocess.TimeoutExpired):
            self._kill()


class SpawnClient:
    """cli-cold: one ``python -m recurquot`` process per operation."""

    def __init__(self):
        self.argv = []
        self.env = dict(os.environ)
        src = str(Path("src").resolve())
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")

    def load(self, ops):
        self.argv = [payload["argv"] for _, payload, _ in ops]

    def run(self, index: int):
        command = [sys.executable, "-m", "recurquot", *self.argv[index]]
        # The reference task, timed in this process, tracks a spawned
        # child's speed poorly.  A bare interpreter start, timed just
        # before the call, tracks it closely: over six runs it cut the
        # spread of op_p50_ms from 10% to 1%.
        bare = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True)
        reference = (time.perf_counter() - bare) * REFERENCE_S / BARE_START_S
        started = time.perf_counter()
        child = subprocess.Popen(command, env=self.env, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL)
        killer = threading.Timer(CAP_S, child.kill)
        killer.start()
        try:
            text = child.stdout.read()
            # wait4, unlike Popen.wait, also returns the child's peak RSS.
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            killer.cancel()
            child.stdout.close()
        elapsed = time.perf_counter() - started
        child.returncode = os.waitstatus_to_exitcode(status)
        if elapsed >= CAP_S:
            return "timeout", CAP_S, None, [], {}, usage.ru_maxrss, reference
        output = (child.returncode, text.decode("utf-8"))
        return "ok", elapsed, output, [], {}, usage.ru_maxrss, reference

    def close(self):
        pass


class Session:
    """A started client and the rounds generated so far from one seed.

    Rounds are generated when first needed, outside the timed operations,
    so set-up holds only the first round.
    """

    def __init__(self, name: str, seed: int, spawn: bool):
        before = worker.time_reference(CALIBRATIONS)
        started = time.perf_counter()
        self.source = workloads.rounds(name, seed)
        self.generated = [next(self.source)]
        self.client = SpawnClient() if spawn else WorkerClient()
        self.client.load(self.generated[0])
        self.loaded = 0
        if spawn:
            # Warm the bytecode cache, as every later process finds it.
            self.client.run(0)
        self.setup_s = time.perf_counter() - started
        after = worker.time_reference(CALIBRATIONS)
        # The latest reference timing; operations replace it as they run.
        self.reference = statistics.median(before + after)
        self.setup_speed = REFERENCE_S / self.reference

    def round(self, r: int):
        while r >= len(self.generated):
            self.generated.append(next(self.source))
        return self.generated[r]

    def run_rounds(self, seconds=None, min_ops=0, schedule=None):
        """Run whole rounds in a closed loop and check every output.

        Without a ``schedule``, rounds run until both ``seconds`` and
        ``min_ops`` are reached; with one, exactly those rounds run.
        """
        records = []
        started = time.perf_counter()
        for position in itertools.count():
            if schedule is not None:
                if position == len(schedule):
                    break
                r = schedule[position]
            elif time.perf_counter() - started >= seconds and len(records) >= min_ops:
                break
            else:
                r = position
            ops = self.round(r)
            if r != self.loaded:
                self.client.load(ops)
                self.loaded = r
            for index, (kind, _, expect) in enumerate(ops):
                status, elapsed, output, spans, counters, rss, timed = self.client.run(index)
                self.reference = timed or self.reference
                if status == "ok" and not workloads.check(expect, output):
                    status = "wrong"
                elif status == "error" and expect[0] in workloads.MUST_NOT_RAISE:
                    status = "wrong"
                records.append({
                    "round": r, "kind": expect[0], "status": status,
                    "latency": elapsed if status == "ok" else CAP_S,
                    "output": output, "spans": spans, "counters": counters,
                    "rss_kb": rss,
                    "scaled": (elapsed * REFERENCE_S / self.reference if status == "ok"
                               else CAP_S),
                })
        return records

    def close(self):
        self.client.close()


def _quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _rate(records) -> float:
    """Correct operations per second of the (scaled) time spent on them."""
    busy = [r["scaled"] for r in records if r["status"] == "ok"]
    return len(busy) / sum(busy) if busy else 0.0


def end_to_end(records, setups) -> dict:
    """The six end-to-end metrics, from scaled timings."""
    latencies = [r["scaled"] for r in records]
    by_round: dict[int, list] = {}
    for r in records:
        by_round.setdefault(r["round"], []).append(r)
    ok = [r for r in records if r["status"] == "ok"]
    # Correct operations per second of the time spent on them, leaving out
    # the slowest 1% of operations (capped ones first).  The cliff rungs put
    # a seed-dependent handful of 0.5-2 s cases into a run of ~10 s of work,
    # enough to swing a plain mean by a fifth; ok_ratio and op_p95_ms
    # report those cases instead.
    cut = _quantile(latencies, 0.99)
    bulk = [r["scaled"] for r in ok if r["scaled"] <= cut]
    return {
        "ops_per_s": (len(bulk) / sum(bulk) if bulk else 0.0, "1/s"),
        "op_p50_ms": (1000 * _quantile(latencies, 0.50), "ms"),
        "op_p95_ms": (1000 * _quantile(latencies, 0.95), "ms"),
        # The complement of the failed ratio, which is 0 on most workloads.
        "ok_ratio": (len(ok) / len(records), "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        # Median over rounds of the largest resident set in the round.
        "peak_rss_mb": (statistics.median(
            max((r["rss_kb"] or 0) for r in rs) / 1024 for rs in by_round.values()), "MB"),
    }


IMPORT_MODULES = ("cli", "errors", "factorization", "groupring", "heights", "integrality",
                  "linalg", "multiplicative", "parsing", "places", "polys", "quotient",
                  "recurrences")


def import_split() -> dict:
    """Cumulative import time per recurquot module, median of three runs, scaled."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path("src").resolve()) + os.pathsep + env.get("PYTHONPATH", "")
    samples: dict[str, list[float]] = {}
    before = worker.time_reference(CALIBRATIONS)
    for _ in range(3):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import recurquot.cli"],
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=60, check=True)
        for line in done.stderr.decode().splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(recurquot\S*)", line)
            if match:
                samples.setdefault(match.group(2), []).append(int(match.group(1)) / 1e6)
    speed = REFERENCE_S / statistics.median(before + worker.time_reference(CALIBRATIONS))
    cumulative = {name: statistics.median(v) * speed for name, v in samples.items()}
    metrics = {"cli.import_s": (cumulative.get("recurquot", 0.0)
                                + cumulative.get("recurquot.cli", 0.0), "s")}
    for module in IMPORT_MODULES:
        metrics[f"cli.import_s.{module}"] = (cumulative.get(f"recurquot.{module}", 0.0), "s")
    return metrics


def per_layer(traced, untraced) -> dict:
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    for record in traced:
        # Self times are scaled like the operation that holds them.
        speed = record["scaled"] / record["latency"] if record["latency"] else 1.0
        for span, own in zip(record["spans"], tracing.self_times(record["spans"])):
            calls[span[0]] = calls.get(span[0], 0) + 1
            self_s[span[0]] = self_s.get(span[0], 0.0) + own * speed
        for key, value in record["counters"].items():
            if key == "factorization.max_input_bits":
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    metrics = tracing.layer_metrics(calls, self_s, counters, len(traced))
    metrics.update(import_split())
    untraced_rate = _rate(untraced)
    metrics["trace.overhead_ratio"] = (
        _rate(traced) / untraced_rate if untraced_rate else 0.0, "ratio")
    return metrics


def machine() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    try:
        head = Path(".git/HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = Path(".git") / ref
        if path.exists():
            return path.read_text().strip()
        for line in Path(".git/packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def by_kind(records) -> dict:
    """Latency and failures of each operation kind, for the result file."""
    kinds: dict[str, list] = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r)
    return {
        kind: {
            "count": len(rs),
            "failed": sum(r["status"] != "ok" for r in rs),
            "p50_ms": 1000 * statistics.median(r["latency"] for r in rs),
            "max_ms": 1000 * max(r["latency"] for r in rs),
        }
        for kind, rs in sorted(kinds.items())
    }


def failures(records) -> dict:
    out: dict[str, int] = {}
    for r in records:
        if r["status"] != "ok":
            out[r["status"]] = out.get(r["status"], 0) + 1
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/recurquot/__init__.py", "tests/data", "tests/golden")
               if not Path(p).exists()]
    if missing:
        print(f"error: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    name, spawn = args.workload, args.workload == "cli-cold"
    info = {"workload": name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "cap_s": CAP_S, "machine": machine()}
    if args.trace == 0:
        setups, info["setup_s_unscaled"] = [], []
        for i in range(SETUPS):
            session = Session(name, args.seed, spawn)
            setups.append(session.setup_s * session.setup_speed)
            info["setup_s_unscaled"].append(session.setup_s)
            if i < SETUPS - 1:
                session.close()
        try:
            records = session.run_rounds(args.seconds, MIN_OPS)
        finally:
            session.close()
        metrics = end_to_end(records, setups)
        mismatches = 0
    else:
        # cli-cold runs cli.main in the worker here: spans need the process.
        session = Session(name, args.seed, spawn=False)
        try:
            untraced = session.run_rounds(args.seconds / 2)
            session.client.enable_tracing()
            schedule = sorted({r["round"] for r in untraced})
            records = session.run_rounds(schedule=schedule)
        finally:
            session.close()
        mismatches = sum(
            a["status"] == b["status"] == "ok" and a["output"] != b["output"]
            for a, b in zip(untraced, records)
        )
        metrics = per_layer(records, untraced)
        write_spans(name, args.seed, records)

    attempted = len(records)
    failed = sum(r["status"] != "ok" for r in records)
    wrong = sum(r["status"] == "wrong" for r in records) + mismatches
    info.update({
        "attempted": attempted, "failures": failures(records), "kinds": by_kind(records),
        "failed_ratio": failed / attempted, "trace_mismatches": mismatches,
        "ops": [[r["round"], r["kind"], r["status"], r["latency"], r["scaled"], r["rss_kb"]]
                for r in records],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=2, sort_keys=True))
    for key, (value, unit) in metrics.items():
        print(f"{key:40s} {value:14.6f} {unit}")
    print(f"samples {attempted}, failed_ratio {failed / attempted:.6f}, "
          f"failures {failures(records)}, wrong or mismatched {wrong}")
    print(json.dumps({"machine": info["machine"]}, sort_keys=True))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if wrong == 0 else 1


def write_spans(name: str, seed: int, records) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl.gz"
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for position, r in enumerate(records):
            handle.write(json.dumps({"op": position, "kind": r["kind"],
                                     "status": r["status"], "spans": r["spans"]}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
