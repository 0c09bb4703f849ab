#!/usr/bin/env python3
"""rwsim benchmark: seeded workloads run through the real CLI.

Usage, from the repository root::

    python3 bench/run.py --workload collision --seed 0 --seconds 30 --trace 0

One round runs the workload's CLI commands one after another, each as
``python -m rwsim ... --jobs 1`` with ``PYTHONPATH=src`` (a closed loop with
one client).  Rounds repeat until ``--seconds`` have passed.  With
``--trace 0`` (at least three rounds, each after one reference task) the
last stdout line is a JSON object holding the end-to-end metrics, medians
over the rounds scaled to reference speed; with ``--trace 1``
untraced rounds alternate with traced ones (at least two), in which
``bench/tracer.py`` runs the same commands in-process with spans, and the
object holds the per-layer metrics.  ``--record-digest`` stores the default seed's report digest in
``bench/digests.json`` (run it after an intended change of behaviour).

Every command run is checked (see ``checks.py``); ``failed`` counts command
runs that failed a check and ``correct`` is true only when none did.  Inputs
and traces go to ``.bench_run/`` in the current directory.  Only the
standard library is used here; NumPy is loaded by rwsim's own processes
and by the reference task.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORKDIR = ".bench_run"
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2

# Printed by the warm-up process: it fills the bytecode cache and page cache
# before timing, and reports the NumPy build the commands will use.
PROBE = """
import glob, json, os, ctypes, numpy, rwsim.cli
threads = None
libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
for path in glob.glob(os.path.join(libs, "*openblas*")):
    lib = ctypes.CDLL(path)
    for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "openblas_get_num_threads"):
        if hasattr(lib, fn):
            threads = getattr(lib, fn)()
            break
print(json.dumps({"numpy": numpy.__version__, "openblas_threads": threads}))
"""


# The reference task: fixed work that uses no rwsim code (interpreter start,
# NumPy import, a bytecode loop, passes over a 4 MiB complex array).  One runs
# before every timed round.  The box is shared and its speed drifts: over
# five minutes every round, set-up included, slowed by half in lockstep, so
# each round's times are scaled to the speed at which this task takes
# REFERENCE_S seconds (see end_to_end).
REFERENCE = """
import numpy as np
x = 0
for i in range(1_500_000):
    x += i * i
a = np.ones(1 << 18, dtype=np.complex128)
for _ in range(40):
    a *= 1j
    a[::2] += a[1::2]
    a /= 2.0
"""
REFERENCE_S = 0.5


@dataclass
class CommandRun:
    argv: list[str]
    returncode: int
    text: str
    wall_s: float
    rss_mb: float
    traced: bool = False
    reasons: list[str] = field(default_factory=list)

    @property
    def duration_s(self) -> float | None:
        return checks.duration(self.text)

    @property
    def body(self) -> list[str]:
        return checks.body(self.text)


def command_env() -> dict[str, str]:
    """The caller's environment with PYTHONPATH=src, minus the width override
    and minus PYTHONDONTWRITEBYTECODE, so that set-up time is measured with
    the bytecode cache a user's second command finds, whatever the caller set.

    OpenBLAS runs one thread.  On two shared cores its default of one thread
    per core was no faster when the box was quiet and twice as slow on the
    collision workload when a neighbour kept one core busy (its threads wait
    for each other), so the default measures the neighbours."""
    drop = ("RWSIM_MAX_QUBITS", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = "src"
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def spawn(argv: list[str], env: dict[str, str]) -> tuple[int, str, float, float]:
    """Run one process to exit: (exit code, stdout, wall seconds, peak RSS in MB)."""
    errlog = ROOT / WORKDIR / "stderr.log"
    with open(errlog, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        try:
            out = proc.stdout.read()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
        # wait4 instead of Popen.wait: it also returns the child's peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), wall, usage.ru_maxrss / 1024.0


def run_cli(argv: list[str], env) -> CommandRun:
    code, text, wall, rss = spawn([sys.executable, "-m", "rwsim", *argv], env)
    return CommandRun(argv, code, text, wall, rss)


def run_traced(wl: workloads.Workload, env) -> tuple[list[CommandRun], dict]:
    """One traced round in a fresh process: (command runs, tracer summary)."""
    out = ROOT / WORKDIR / "trace.json"
    spans = ROOT / WORKDIR / "spans.bin"
    out.unlink(missing_ok=True)
    code, _, wall, rss = spawn(
        [sys.executable, str(BENCH / "tracer.py"), str(out), str(spans), json.dumps(wl.commands)],
        env,
    )
    if code != 0 or not out.is_file():
        raise RuntimeError(f"tracer exited with code {code}; see {WORKDIR}/stderr.log")
    summary = json.loads(out.read_text())
    runs = [
        CommandRun(argv, rep["rc"], rep["text"], wall, rss, traced=True)
        for argv, rep in zip(wl.commands, summary["reports"])
    ]
    return runs, summary


def check_round(wl: workloads.Workload, runs: list[CommandRun]) -> None:
    for run in runs:
        run.reasons += checks.command(run.returncode, run.text)
    if wl.name == "circuit-wide":
        runs[0].reasons += checks.wide(runs[0].text, runs[wl.exact].text)
    elif wl.name == "tableau":
        runs[0].reasons += checks.tableau(runs[0].text, wl.facts["blocks"])


def check_repeats(rounds: list[list[CommandRun]], stored: dict | None, exact) -> None:
    """Bodies must repeat across rounds (traced or not) and match the digest."""
    first = [run.body for run in rounds[0]]
    for runs in rounds:
        for run, want in zip(runs, first):
            if run.body != want:
                kind = "traced" if run.traced else "repeated"
                run.reasons.append(f"{kind} report body differs from the first round")
        if stored is not None:
            reasons = checks.matches(stored, checks.fingerprint([r.body for r in runs], exact))
            for run in runs:
                run.reasons += reasons


def counts(summary: dict) -> tuple:
    """The parts of a trace that must repeat exactly for a given seed."""
    calls = {name: (f["calls"], f["raised"], f["determined_calls"])
             for name, f in summary["functions"].items()}
    return calls, summary["counters"]


def until(seconds: float, minimum: int, start: float, done: int) -> bool:
    """Start another round while it should end within the time (judged by the
    mean round so far), or while under the minimum count (capped at 3x time)."""
    elapsed = time.perf_counter() - start
    if done < minimum:
        return elapsed < 3 * seconds
    return elapsed + elapsed / done <= seconds


def reference(env) -> float:
    """Wall seconds of one reference task."""
    code, _, wall, _ = spawn([sys.executable, "-c", REFERENCE], env)
    if code != 0:
        raise RuntimeError(f"reference task exited with code {code}; see {WORKDIR}/stderr.log")
    return wall


def end_to_end(wl, rounds: list[list[CommandRun]], refs: list[float]) -> tuple[dict, dict]:
    """Medians over the rounds, scaled to reference speed, and the raw medians.

    Each round's times are multiplied (its rate divided) by REFERENCE_S over
    the reference task run just before it, so they read as on a box where
    that task takes REFERENCE_S seconds; a change to rwsim moves them, a
    drift of the box's speed mostly does not.  Memory is not scaled.
    """
    rows = []  # (scale, wall, setup, rate, rss) per completed round
    for runs, ref in zip(rounds, refs):
        durations = [run.duration_s for run in runs]
        if None in durations:
            continue
        rows.append((
            REFERENCE_S / ref,
            sum(run.wall_s for run in runs),
            sum(run.wall_s - d for run, d in zip(runs, durations)),
            wl.trials / durations[0],
            max(run.rss_mb for run in runs),
        ))
    if not rows:
        raise RuntimeError("no round completed; see the reports in .bench_run/")
    raw = {
        "wall_s": statistics.median(r[1] for r in rows),
        "trials_per_s": statistics.median(r[3] for r in rows),
        "setup_s": statistics.median(r[2] for r in rows),
        "peak_rss_mb": statistics.median(r[4] for r in rows),
        "reference_s": statistics.median(refs),
        "samples": len(rows),
    }
    return {
        "wall_s": statistics.median(k * wall for k, wall, _, _, _ in rows),
        "trials_per_s": statistics.median(rate / k for k, _, _, rate, _ in rows),
        "setup_s": statistics.median(k * setup for k, _, setup, _, _ in rows),
        "peak_rss_mb": raw["peak_rss_mb"],
    }, raw


def busy(runs: list[CommandRun]) -> float:
    return sum(run.duration_s or 0.0 for run in runs)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with at least ten samples above it.

    With ten samples or fewer no rank qualifies, and the maximum is reported
    at the 100th percentile; the ``samples`` metric says which case holds.
    """
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return (ordered[-1], 100.0) if ordered else (0.0, 0.0)
    rank = len(ordered) - 11
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def per_layer(names, summaries: list[dict], untraced, traced, exact_index) -> dict:
    """Per-layer values: counts from the first traced round (they repeat
    exactly, which the caller checks), times as medians over traced rounds,
    latencies pooled over traced rounds."""
    first = summaries[0]

    def fn(name):
        return first["functions"].get(name, {})

    def median_over(name, key):
        return statistics.median(s["functions"].get(name, {}).get(key, 0.0) for s in summaries)

    def counter(name, key):
        return first["counters"].get(name, {}).get(key, 0)

    pooled = {
        name: [x for s in summaries for x in s["latencies_ms"][name]]
        for name in first["latencies_ms"]
    }
    values = {}
    for metric in names:
        if metric == "exact_s":
            values[metric] = statistics.median(
                r[exact_index].duration_s for r in untraced
            ) if exact_index is not None else 0.0
            continue
        if metric == "trace.overhead_frac":
            # duration_s of the same commands, traced in-process vs untraced
            values[metric] = statistics.median(busy(r) for r in traced) / statistics.median(
                busy(r) for r in untraced
            ) - 1.0
            continue
        if metric == "pathsum.branch_gates":
            values[metric] = counter("pathsum.acceptance_probability", "branch_gates")
            continue
        func, stat = metric.rsplit(".", 1)
        entry = fn(func)
        if stat == "calls":
            value = entry.get("calls", 0)
        elif stat == "self_s":
            value = median_over(func, "self_s")
        elif stat == "refused":
            value = entry.get("raised", 0)
        elif stat == "determined_calls":
            value = entry.get("determined_calls", 0)
        elif stat == "determined_self_s":
            value = median_over(func, "determined_self_s")
        elif stat == "random_calls":
            value = entry.get("calls", 0) - entry.get("determined_calls", 0)
        elif stat == "random_self_s":
            value = statistics.median(
                s["functions"].get(func, {}).get("self_s", 0.0)
                - s["functions"].get(func, {}).get("determined_self_s", 0.0)
                for s in summaries
            )
        elif stat == "p50_ms":
            value = statistics.median(pooled[func]) if pooled[func] else 0.0
        elif stat == "tail_ms":
            value = tail(pooled[func])[0]
        elif stat == "tail_pct":
            value = tail(pooled[func])[1]
        elif stat == "samples":
            value = len(pooled[func])
        elif stat == "level_success_ratio":
            attempts = counter(func, "attempts")
            value = counter(func, "level_successes") / attempts if attempts else 0.0
        elif stat == "success_ratio":
            calls = entry.get("calls", 0)
            value = counter(func, "successes") / calls if calls else 0.0
        elif stat in ("amp_bytes", "attempts", "fallbacks", "copies"):
            value = counter(func, stat)
        else:
            raise KeyError(f"per-layer metric {metric!r} has no definition")
        values[metric] = value
    return values


def cache_size(level: int) -> int | None:
    """Cache size in bytes from the C library's sysconf (None if unknown)."""
    names = {2: 191, 3: 194}  # _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    try:
        value = ctypes.CDLL(None).sysconf(names[level])
    except (OSError, AttributeError):
        return None
    return value if value > 0 else None


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so spawn() kills and reaps the running command
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "rwsim" / "cli.py").is_file():
        print("error: run from the rwsim repository root (src/rwsim/cli.py not found)",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / WORKDIR).mkdir(exist_ok=True)
    wl = workloads.build(args.workload, args.seed, WORKDIR, ROOT)
    for path, text in wl.files.items():
        (ROOT / path).write_text(text)
    env = command_env()
    code, probe, _, _ = spawn([sys.executable, "-c", PROBE], env)
    if code != 0:
        print(f"error: cannot import rwsim and numpy; see {WORKDIR}/stderr.log", file=sys.stderr)
        return 2

    start = time.perf_counter()
    untraced: list[list[CommandRun]] = []
    traced: list[list[CommandRun]] = []
    summaries = []
    refs: list[float] = []
    if args.trace:
        while until(args.seconds, MIN_TRACED_ROUNDS, start, len(traced)):
            untraced.append([run_cli(c, env) for c in wl.commands])
            runs, summary = run_traced(wl, env)
            traced.append(runs)
            summaries.append(summary)
    else:
        while until(args.seconds, MIN_ROUNDS, start, len(untraced)):
            refs.append(reference(env))
            untraced.append([run_cli(c, env) for c in wl.commands])
    rounds = untraced + traced
    for runs in rounds:
        check_round(wl, runs)
    digests_path = BENCH / "digests.json"
    digests = json.loads(digests_path.read_text()) if digests_path.is_file() else {}
    at_default = args.seed == workloads.DEFAULT_SEED and not args.record_digest
    stored = digests.get(wl.name) if at_default else None
    if at_default and stored is None:
        untraced[0][0].reasons.append("no stored digest for the default seed")
    check_repeats(rounds, stored, wl.exact)
    for runs, summary in zip(traced, summaries):
        if counts(summary) != counts(summaries[0]):
            for run in runs:
                run.reasons.append("traced call counts differ from the first traced round")

    all_runs = [run for runs in rounds for run in runs]
    failed = [run for run in all_runs if run.reasons]
    for run in failed:
        print(f"check failed: {' '.join(run.argv)}: {'; '.join(run.reasons)}", file=sys.stderr)

    if args.record_digest:
        if args.seed != workloads.DEFAULT_SEED or failed:
            print("error: digests are recorded from a clean run at the default seed",
                  file=sys.stderr)
            return 1
        digests[wl.name] = checks.fingerprint([r.body for r in untraced[0]], wl.exact)
        digests_path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")

    if args.trace:
        kind = spec["per_layer"]
        values = per_layer([m["name"] for m in kind], summaries, untraced, traced, wl.exact)
        samples = len(summaries)
        raw = None
    else:
        kind = spec["end_to_end"]
        values, raw = end_to_end(wl, untraced, refs)
        samples = raw["samples"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in kind}

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(untraced),
        "traced_rounds": len(traced),
        "samples": samples,
        "unscaled": raw,
        "round_wall_s": [sum(run.wall_s for run in runs) for runs in untraced],
        "round_reference_s": refs,
        "commands": [" ".join(c) for c in wl.commands],
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        **json.loads(probe.strip().splitlines()[-1]),
        "l2_bytes": cache_size(2),
        "l3_bytes": cache_size(3),
        "rwsim_max_qubits": "cleared",
        "facts": wl.facts,
    }
    (ROOT / WORKDIR / f"record-{wl.name}-{args.seed}-{args.trace}.json").write_text(
        json.dumps({"record": record, "metrics": metrics}, indent=1) + "\n"
    )
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(all_runs),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
