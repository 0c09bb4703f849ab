"""Self-check of the benchmark's correctness checks and tracer.

Usage, from the repository root::

    PYTHONPATH=src python3 bench/selfcheck.py

1. Runs real reports of the default-seed workloads (small trial counts) and
   shows that each check passes on them and fires on a deliberately
   corrupted copy: exit code, ``assert.*=fail``, the 4-sigma agreement of
   ``circuit-wide``, the accept and re-measurement checks of ``tableau``,
   body repeats, and the stored digest (path-sum numbers within 1e-12).
2. Installs the tracer and shows that no ``rwsim.*`` namespace keeps an
   unwrapped alias (and that the scan finds one planted on purpose).
3. Traces ``simulate circuits/rewind_retry.qc --backend sv --trials 64`` and
   compares the traced ``measure`` and ``rewind`` call counts with the
   values derived from that run's own ``count.*`` lines.

Prints one line per expectation and exits 1 if any is not met.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import checks
import run as bench
import tracer
import workloads

ROOT = Path.cwd()
failures = []


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        failures.append(what)


def cli(argv: list[str]) -> tuple[int, str]:
    import rwsim.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = rwsim.cli.main(argv)
    return code, buf.getvalue()


def replace(text: str, key: str, value: str) -> str:
    return "\n".join(
        f"{key}={value}" if line.rpartition("=")[0] == key else line for line in text.splitlines()
    ) + "\n"


def check_reports() -> None:
    (ROOT / bench.WORKDIR).mkdir(exist_ok=True)
    digests = json.loads((bench.BENCH / "digests.json").read_text())

    wl = workloads.build("tableau", workloads.DEFAULT_SEED, bench.WORKDIR, ROOT)
    for path, text in wl.files.items():
        (ROOT / path).write_text(text)
    argv = list(wl.commands[0])
    argv[argv.index("--trials") + 1] = "2"
    code, good = cli(argv)
    expect(checks.command(code, good) == [], "command check passes on a clean tableau report")
    expect(checks.command(1, good) != [], "command check fires on a non-zero exit code")
    expect(checks.command(0, good.replace("duration_s=", "elapsed=")) != [],
           "command check fires on a report without duration_s")
    expect(checks.tableau(good, wl.facts["blocks"]) == [], "tableau check passes on it")
    trial = next(line for line in good.splitlines() if line.startswith("trial.0="))
    expect(checks.tableau(good.replace(trial, trial.replace("accept:1", "accept:0")),
                          wl.facts["blocks"]) != [],
           "tableau check fires on an accept bit of 0")
    bits = dict(part.split(":") for part in trial.split("=", 1)[1].split(","))
    flipped = trial.replace(f"d0:{bits['d0']}", f"d0:{1 - int(bits['d0'])}")
    expect(checks.tableau(good.replace(trial, flipped), wl.facts["blocks"]) != [],
           "tableau check fires on a re-measurement that differs from the last outcome")

    wl = workloads.build("circuit-wide", workloads.DEFAULT_SEED, bench.WORKDIR, ROOT)
    for path, text in wl.files.items():
        (ROOT / path).write_text(text)
    _, sv = cli(wl.commands[0])
    _, exact = cli(wl.commands[1])
    expect(checks.wide(sv, exact) == [], "4-sigma check passes on clean circuit-wide reports")
    expect(checks.wide(sv, replace(exact, "p_accept", "0.0")) != [],
           "4-sigma check fires on p_accept = 0")
    # 4 trials give a 4-sigma window wider than [0, 1] at p_accept = 1/2, so
    # the window itself is shown on a 400-trial report of circuits/bell.qc
    _, bell_sv = cli(["simulate", "circuits/bell.qc", "--backend", "sv",
                      "--trials", "400", "--jobs", "1"])
    _, bell_exact = cli(["simulate", "circuits/bell.qc", "--backend", "pathsum"])
    expect(checks.wide(bell_sv, bell_exact) == [], "4-sigma check passes on a clean bell report")
    expect(checks.wide(replace(bell_sv, "accept_freq", "0.65"), bell_exact) != [],
           "4-sigma check fires on an accept_freq 6 sigma from p_accept")

    p = float(dict(checks.parse(exact))["p_accept"])
    stored = digests["circuit-wide"]
    bodies = [checks.body(sv), checks.body(exact)]
    expect(checks.matches(stored, checks.fingerprint(bodies, wl.exact)) == [],
           "digest check passes on the default-seed circuit-wide reports")
    nudged = replace(exact, "p_accept", repr(p + 1e-13))
    expect(checks.matches(stored, checks.fingerprint([bodies[0], checks.body(nudged)],
                                                     wl.exact)) == [],
           "digest check accepts a path-sum probability moved by 1e-13")
    moved = replace(exact, "p_accept", repr(p + 1e-9))
    expect(checks.matches(stored, checks.fingerprint([bodies[0], checks.body(moved)],
                                                     wl.exact)) != [],
           "digest check fires on a path-sum probability moved by 1e-9")
    edited = replace(sv, "qubits", "21")
    expect(checks.matches(stored, checks.fingerprint([checks.body(edited), bodies[1]],
                                                     wl.exact)) != [],
           "digest check fires on a changed report line")
    width = f"qubits={workloads.WIDE_QUBITS}"
    expect(width in sv and checks.command(0, sv.replace(width, "assert.width=fail")) != [],
           "command check fires on an assert line that reads fail")

    rounds = [
        [bench.CommandRun(c, 0, text, 1.0, 1.0) for c, text in zip(wl.commands, (sv, exact))]
        for _ in range(2)
    ]
    rounds[1][0].text = replace(sv, "accept_freq", "0.123")
    bench.check_repeats(rounds, None, wl.exact)
    expect(rounds[0][0].reasons == [] and rounds[1][1].reasons == [],
           "repeat check passes on identical bodies")
    expect(rounds[1][0].reasons != [], "repeat check fires on a body that differs")


def check_tracer() -> None:
    trace = tracer.Trace()
    originals = tracer.install(trace)
    expect(tracer.unwrapped_aliases(originals) == [],
           "no rwsim namespace keeps an unwrapped alias after install")
    import rwsim.applications
    import rwsim.statevector

    rwsim.applications.planted_alias = rwsim.statevector.measure.__wrapped__
    expect(tracer.unwrapped_aliases(originals) != [], "alias scan fires on a planted alias")
    del rwsim.applications.planted_alias

    code, text = cli(["simulate", "circuits/rewind_retry.qc", "--backend", "sv",
                      "--trials", "64", "--jobs", "1"])
    summary = trace.summary()["functions"]
    measures = rewinds = 0
    for key, value in checks.parse(text):
        if key.startswith("count."):
            labels = [part.split(":")[0] for part in key[len("count."):].split(",")]
            # every label is one measure call (the accept readout too); each
            # retry measurement after the first follows one rewind
            measures += int(value) * len(labels)
            rewinds += int(value) * sum(1 for label in labels if label in ("t2", "t3"))
    expect(code == 0 and summary["statevector.measure"]["calls"] == measures,
           f"traced measure calls {summary['statevector.measure']['calls']} "
           f"equal the count.* total {measures}")
    expect(summary["statevector.rewind"]["calls"] == rewinds,
           f"traced rewind calls {summary['statevector.rewind']['calls']} "
           f"equal the count.* total {rewinds}")


def main() -> int:
    check_reports()
    check_tracer()
    print(f"{len(failures)} expectation(s) not met" if failures else "all expectations met")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
