"""Run rwsim CLI commands in-process with every layer's public functions traced.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 bench/tracer.py OUT.json SPANS.bin '[["demo", "pp", "--n", "4"]]'

Each public function defined in an ``rwsim`` module (for ``rwsim.cli`` only
``main``), plus ``Gate.unitary`` and ``SplitMix64.next_u64``, is replaced by
a wrapper that records one span per call: function, start, end, parent span
and trial index (the stream index of the last ``stream_seed`` call).  Names
bound by ``from .x import f`` are rebound too, at every module that holds
them; an alias left unwrapped aborts the run.  Spans stay in memory and are
written to SPANS.bin when the commands end; OUT.json receives the reports
and per-function aggregates.  A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import sys
import time
from array import array

LAYER_MODULES = (
    "applications", "circuit", "cli", "gates", "mbqc",
    "mitigation", "pathsum", "rng", "stabilizer", "statevector",
)
# functions whose per-call latency is reported as p50 and tail
LATENCY = ("statevector.run", "stabilizer.stab_run", "applications.pp_decide",
           "applications.collision_find")
BRANCHING = frozenset({"h", "hk", "ch"})

RAISED = 1
DETERMINED = 2


class Trace:
    """Spans held in flat arrays, plus counters filled by per-function hooks."""

    def __init__(self):
        self.names: list[str] = []
        self.fid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trial = array("q")
        self.flags = array("B")
        self.stack = [-1]
        self.current_trial = -1
        self.counters: dict[str, dict[str, float]] = {}

    def wrap(self, name, fn, hook=None):
        fid = len(self.names)
        self.names.append(name)
        fids, starts, ends, parents = self.fid, self.start, self.end, self.parent
        trials, flags, stack, clock = self.trial, self.flags, self.stack, time.perf_counter
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            trials.append(trace.current_trial)
            flags.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                flags[i] |= RAISED
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if hook is not None:
                hook(trace, i, args, result)
            return result

        return wrapper

    def count(self, name: str, key: str, amount: float) -> None:
        bucket = self.counters.setdefault(name, {})
        bucket[key] = bucket.get(key, 0) + amount

    def summary(self) -> dict:
        """Per function: calls, self time, raised and determined splits, latencies."""
        n = len(self.fid)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        stats = {
            name: {"calls": 0, "self_s": 0.0, "raised": 0,
                   "determined_calls": 0, "determined_self_s": 0.0}
            for name in self.names
        }
        latencies: dict[str, list[float]] = {name: [] for name in LATENCY}
        for i in range(n):
            name = self.names[self.fid[i]]
            entry = stats[name]
            own = dur[i] - covered[i]
            entry["calls"] += 1
            entry["self_s"] += own
            flag = self.flags[i]
            if flag & RAISED:
                entry["raised"] += 1
            if flag & DETERMINED:
                entry["determined_calls"] += 1
                entry["determined_self_s"] += own
            if name in latencies:
                latencies[name].append(dur[i] * 1e3)
        return {"functions": stats, "latencies_ms": latencies, "counters": self.counters,
                "spans": n}

    def dump(self, path: str) -> None:
        """Header line (names, span count) then the raw arrays, in field order."""
        with open(path, "wb") as out:
            header = {"names": self.names, "spans": len(self.fid),
                      "fields": ["fid:i", "start:d", "end:d", "parent:i", "trial:q", "flags:B"]}
            out.write((json.dumps(header) + "\n").encode())
            for arr in (self.fid, self.start, self.end, self.parent, self.trial, self.flags):
                arr.tofile(out)


# hooks: counters that need arguments or results, measured where the work happens


def _on_stream_seed(trace, i, args, result):
    trace.current_trial = args[1]


def _on_apply_matrix(trace, i, args, result):
    trace.count("statevector.apply_matrix", "amp_bytes", 16 << args[0].n)


def _on_stab_measure(trace, i, args, result):
    if result[1] == 1.0:
        trace.flags[i] |= DETERMINED


def _on_prepare_psi(trace, i, args, result):
    trace.count("mitigation.prepare_psi", "attempts", result[1])


def _on_mitigate(trace, i, args, result):
    _, log = result
    trace.count("mitigation.mitigate", "attempts", len(log.events))
    trace.count("mitigation.mitigate", "level_successes", sum(1 for e in log.events if e[2] == 0))
    trace.count("mitigation.mitigate", "fallbacks", int(log.outcome == "random_fallback"))


def _on_pp_decide(trace, i, args, result):
    trace.count("applications.pp_decide", "copies", result.copies * len(result.plus_fractions))


def _on_collision_find(trace, i, args, result):
    trace.count("applications.collision_find", "successes", int(result is not None))


def _on_acceptance(trace, i, args, result):
    gates = 0
    for instr in args[0].instructions:
        instr = getattr(instr, "inner", instr)
        gate = getattr(instr, "gate", None)
        if gate is not None and gate.name in BRANCHING:
            gates += 1
    trace.count("pathsum.acceptance_probability", "branch_gates", gates)


HOOKS = {
    "rng.stream_seed": _on_stream_seed,
    "statevector.apply_matrix": _on_apply_matrix,
    "stabilizer.stab_measure": _on_stab_measure,
    "mitigation.prepare_psi": _on_prepare_psi,
    "mitigation.mitigate": _on_mitigate,
    "applications.pp_decide": _on_pp_decide,
    "applications.collision_find": _on_collision_find,
    "pathsum.acceptance_probability": _on_acceptance,
}


def _targets():
    """(span name, original) for every traced callable."""
    import rwsim.cli  # noqa: F401  (imports every layer module)
    from rwsim.gates import Gate
    from rwsim.rng import SplitMix64

    found = []
    for short in LAYER_MODULES:
        module = sys.modules[f"rwsim.{short}"]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__ or (short == "cli" and attr != "main"):
                continue
            found.append((f"{short}.{attr}", obj))
    found.append(("gates.Gate.unitary", Gate.unitary))
    found.append(("rng.next_u64", SplitMix64.next_u64))
    return found


def _namespaces():
    spaces = [m for name, m in sys.modules.items() if name == "rwsim" or name.startswith("rwsim.")]
    from rwsim.gates import Gate
    from rwsim.rng import SplitMix64

    return spaces + [Gate, SplitMix64]


def install(trace: Trace) -> dict[int, str]:
    """Wrap every target and rebind each alias of it; returns originals by id."""
    wrappers, originals = {}, {}
    for name, fn in _targets():
        wrappers[id(fn)] = trace.wrap(name, fn, HOOKS.get(name))
        originals[id(fn)] = name
    for space in _namespaces():
        for attr, obj in list(vars(space).items()):
            if id(obj) in wrappers:
                setattr(space, attr, wrappers[id(obj)])
    return originals


def unwrapped_aliases(originals: dict[int, str]) -> list[str]:
    """Names in any rwsim namespace still bound to an original function."""
    left = []
    for space in _namespaces():
        label = getattr(space, "__name__", repr(space))
        for attr, obj in vars(space).items():
            if id(obj) in originals:
                left.append(f"{label}.{attr} -> {originals[id(obj)]}")
    return left


def run(commands: list[list[str]]) -> tuple[Trace, list[dict], list[str]]:
    """Trace the commands in this process; also returns any unwrapped alias."""
    trace = Trace()
    originals = install(trace)
    left = unwrapped_aliases(originals)
    import rwsim.cli

    reports = []
    if not left:
        for argv in commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = rwsim.cli.main(argv)
            reports.append({"rc": code, "text": buf.getvalue()})
    return trace, reports, left


def main(argv: list[str]) -> int:
    out_path, spans_path, commands = argv[0], argv[1], json.loads(argv[2])
    trace, reports, left = run(commands)
    if left:
        print("tracer: unwrapped aliases: " + "; ".join(left), file=sys.stderr)
        return 3
    result = trace.summary()
    trace.dump(spans_path)
    result["reports"] = reports
    with open(out_path, "w") as out:
        json.dump(result, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
