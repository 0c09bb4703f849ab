"""Command-line front end: circuit execution and protocol demos.

Subcommands
-----------
``simulate <file> --backend sv|stab|pathsum``
    Run a circuit file: the sampling backends (sv, stab) draw seeded trials,
    the path-sum backend prints exact probabilities (``p_accept`` only for
    a circuit that declares ``accept``) and refuses the sampling flags
    ``--trials`` and ``--min-postselect-prob``.  Every ``rewind`` is the
    paper's strict rewind; ``clone`` is the unchecked restore.

``demo pp|collision|sd|mbqc|mitigate``
    Seeded protocol demonstrations with built-in assertions.

Reports are line-oriented ``key=value`` text with floats rendered via
``repr`` so a fixed seed reproduces byte-identical output; the trailing
``duration_s`` line is the only nondeterministic one.  ``--jobs`` fans trials
out over worker processes, but every trial i draws from its own RNG stream
(seeded by a 64-bit mix of the master seed and i), so reports are identical
for any jobs count and the flag is deliberately left out of the report body.

``main`` loads the modules a command runs on after parsing its arguments
and before starting its clock: ``circuit`` and ``stabilizer`` or ``pathsum``
for those two backends, which never load NumPy, and NumPy and every layer
for the dense backend and the demos.

Exit codes: 0 = assertions passed, 1 = assertion or runtime failure, 2 =
bad input, any :class:`rwsim.circuit.InputError`: usage, parse and
validation errors, a gate the backend does not run, widths over the qubit
or tableau cap, and path sums over the amplitude cap.  A failure prints one
stderr line, ``error: <message>`` for bad input and ``error: <class>:
<message>`` otherwise; an input file's line is named ``<path>: line N: ``.
Each rule is checked once, by its owner: the library refuses what it cannot
build or run, and this module checks only its own flags and file formats.
A command builds its trial function before it starts a worker or computes
an exact figure, so bad input is refused first.
"""

from __future__ import annotations

import argparse
import importlib.util
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from .circuit import InputError, outcome_distribution, parse_circuit, sampler
from .rng import SplitMix64, stream_seed


def _deferred(name: str):
    """Module ``rwsim.<name>``, listed in ``sys.modules`` but run only at its
    first attribute access (``importlib.util.LazyLoader``); an already
    imported module is returned as it is.

    So ``import rwsim.cli`` lists every layer module, as the benchmark's
    tracer expects, and still loads no NumPy.
    """
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


applications, mbqc, mitigation, pathsum, stabilizer, statevector = map(
    _deferred, ("applications", "mbqc", "mitigation", "pathsum", "stabilizer", "statevector")
)

# What a command runs on, loaded by ``main`` before its clock starts.  The
# stabilizer and path-sum backends need no NumPy; every other command loads
# NumPy and then the layer modules in the order they always had.
_BACKEND_MODULES = {"stab": (".stabilizer",), "pathsum": (".pathsum",)}
_ALL_MODULES = (
    "numpy", ".statevector", ".applications", ".pathsum", ".stabilizer", ".mbqc", ".mitigation",
)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _compact(obj) -> str:
    """One-token rendering of a decoded domain element for report lines."""
    return "".join(str(obj).split())


def _field(record: str, name: str) -> str:
    for part in record.split(","):
        key, _, value = part.partition(":")
        if key == name:
            return value
    raise KeyError(f"record {record!r} has no field {name!r}")


# ---------------------------------------------------------------------------
# seeded trial engine: trial i always runs on stream_seed(master, i), so the
# records are independent of how trials are chunked across processes.


def _chunk_records(payload) -> list[str]:
    build, args, seed, indices = payload
    trial_fn = build(args)
    return [trial_fn(SplitMix64(stream_seed(seed, i))) for i in indices]


def _trial_records(build, args, trials: int, seed: int, jobs: int) -> list[str]:
    if trials < 1:
        raise InputError("--trials must be positive")
    indices = list(range(trials))
    if jobs <= 1 or trials <= 1:
        return _chunk_records((build, args, seed, indices))
    build(args)  # its checks refuse bad input before any worker starts
    workers = min(jobs, trials)
    step = math.ceil(trials / workers)
    chunks = [
        (build, args, seed, indices[lo : lo + step]) for lo in range(0, trials, step)
    ]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(_chunk_records, chunks)
        return [record for part in parts for record in part]


def _build_simulate(args):
    circuit, backend, min_prob = args
    kernel = {"sv": statevector, "stab": stabilizer, "pathsum": pathsum}[backend].KERNEL
    trial = sampler(circuit, kernel, min_postselect_prob=min_prob)

    def one(rng: SplitMix64) -> str:
        result = trial(rng)
        parts = [f"{label}:{bit}" for label, (bit, _) in result.record.items()]
        if result.accept_bit is not None:
            parts.append(f"accept:{result.accept_bit}")
        return ",".join(parts) if parts else "-"

    return one


def _build_pp(args):
    (n,) = args
    size = 1 << n

    def one(rng: SplitMix64) -> str:
        s = 1 + rng.randrange(size)
        perm = list(range(size))
        for i in range(s):
            j = i + rng.randrange(size - i)
            perm[i], perm[j] = perm[j], perm[i]
        table = [0] * size
        for x in perm[:s]:
            table[x] = 1
        expected = applications.LOW if s < size // 2 else applications.HIGH
        got = applications.pp_decide(applications.BooleanFunction(n, tuple(table)), rng).decision
        return f"s:{s},expected:{expected},got:{got},correct:{int(got == expected)}"

    return one


def _collision_family(args):
    kind, bits, lwe_args, key_seed = args
    if kind == "toy":
        params = None
        family = applications.toy_two_regular(bits)
    else:
        ln, lq, lm, lmu = lwe_args
        params = applications.LWEParams.toy_scale(SplitMix64(key_seed), ln, lq, lm, lmu)
        family = applications.lwe_family(params)
    return family, params


def _build_collision(args):
    import numpy as np

    family_args, allow_rewind = args
    family, params = _collision_family(family_args)
    applications._family_readings(family)  # refuses a family over the width cap

    def verify(a, b) -> bool:
        if a == b:
            return False
        if params is None:
            # toy f(x, c) = x: a collision is the same x with the other c
            return a[0] == b[0] and a[1] != b[1]
        image = lambda s, e, c: (
            np.array(s) @ params.A + np.array(e) + c * (params.s0 @ params.A + params.e0)
        ) % params.q
        return bool(np.array_equal(image(*a), image(*b)))

    def one(rng: SplitMix64) -> str:
        pair = applications.collision_find(family, rng, allow_rewind)
        if pair is None:
            return "success:0"
        first, second = pair
        valid = int(verify(first, second))
        return f"success:1,valid:{valid},first:{_compact(first)},second:{_compact(second)}"

    return one


def _build_sd(args):
    image = applications.sd_image_reading(*args)

    def one(rng: SplitMix64) -> str:
        return f"differ:{applications.sd_trial(image, rng)}"

    return one


def _build_mbqc(args):
    rows, cols, entries, budget = args
    spec = mbqc.BrickworkSpec(rows, cols)
    pattern = mbqc.MeasurementPattern(entries)
    trial = sampler(mbqc.pattern_circuit(spec, pattern, budget), statevector.KERNEL)
    oracle = mbqc.pattern_oracle(spec, pattern)

    def one(rng: SplitMix64) -> str:
        result = trial(rng)
        if not mbqc.reads_all_zero(result.record):
            return "all_zero:0,fidelity:-"
        fidelity = statevector.fidelity(oracle, result.final_state.core)
        return f"all_zero:1,fidelity:{fidelity!r}"

    return one


# ---------------------------------------------------------------------------
# input files and simulate


def _read(path: str, what: str) -> str:
    """The text of a ``what`` file (circuit, table or pattern)."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {what} file: {exc}") from None


def _numbered(path: str, what: str) -> Iterator[tuple[str, str]]:
    """``(<path>: line N: , body)`` for each line of a ``what`` file that is
    not blank once its ``#`` comment is stripped."""
    for lineno, line in enumerate(_read(path, what).splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            yield f"{path}: line {lineno}: ", body


# the sampling flags of ``simulate``, which the exact path-sum backend refuses,
# and their defaults on the sampling backends
_SAMPLING_FLAGS = {"trials": 100, "min_postselect_prob": 0.0}


def cmd_simulate(ns) -> tuple[list, bool]:
    given = [name for name in _SAMPLING_FLAGS if getattr(ns, name) is not None]
    if ns.backend == "pathsum" and given:
        flags = ", ".join("--" + name.replace("_", "-") for name in given)
        raise InputError(f"backend pathsum is exact and takes no {flags}")
    for name, default in _SAMPLING_FLAGS.items():
        if getattr(ns, name) is None:
            setattr(ns, name, default)
    circuit = parse_circuit(_read(ns.circuit, "circuit"), name=ns.circuit)
    echo = f"simulate {ns.circuit} --backend {ns.backend} --trials {ns.trials} --seed {ns.seed}"
    if ns.min_postselect_prob != _SAMPLING_FLAGS["min_postselect_prob"]:
        echo += f" --min-postselect-prob {ns.min_postselect_prob!r}"
    lines: list = [
        ("command", echo),
        ("circuit", ns.circuit),
        ("backend", ns.backend),
        ("qubits", circuit.n_qubits),
    ]
    if ns.backend == "pathsum":
        if circuit.accept is None:
            dist = outcome_distribution(circuit, pathsum.KERNEL)
        else:
            dist = {}
            lines.append(("p_accept", pathsum.acceptance_probability(circuit, outcomes=dist)))
        if len(dist) <= 64:
            for key in sorted(dist):
                if key:  # a circuit that measures nothing has one empty key
                    lines.append((f"p.{key.replace('=', ':')}", dist[key]))
        return lines, True
    lines += [("trials", ns.trials), ("seed", ns.seed)]
    records = _trial_records(
        _build_simulate,
        (circuit, ns.backend, ns.min_postselect_prob),
        ns.trials,
        ns.seed,
        ns.jobs,
    )
    lines += [(f"trial.{i}", record) for i, record in enumerate(records)]
    counts: dict[str, int] = {}
    for record in records:
        counts[record] = counts.get(record, 0) + 1
    for key in sorted(counts):
        lines.append((f"count.{key}", counts[key]))
    for key in sorted(counts):
        lines.append((f"freq.{key}", counts[key] / ns.trials))
    accepted = sum(1 for r in records if r.split(",")[-1] == "accept:1")
    if any(r.split(",")[-1].startswith("accept:") for r in records):
        lines.append(("accept_freq", accepted / ns.trials))
    return lines, True


# ---------------------------------------------------------------------------
# demos


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InputError(message)


def cmd_demo_pp(ns) -> tuple[list, bool]:
    _require(1 <= ns.n <= 6, "--n must lie in 1..6")
    records = _trial_records(_build_pp, (ns.n,), ns.trials, ns.seed, ns.jobs)
    lines: list = [
        ("command", f"demo pp --n {ns.n} --trials {ns.trials} --seed {ns.seed}"),
        ("n", ns.n),
        ("trials", ns.trials),
        ("seed", ns.seed),
    ]
    lines += [(f"trial.{i}", record) for i, record in enumerate(records)]
    correct = sum(_field(r, "correct") == "1" for r in records)
    freq = correct / ns.trials
    ok = freq >= 0.99
    lines += [
        ("correct", correct),
        ("correct_freq", freq),
        ("assert.correct_freq>=0.99", "pass" if ok else "fail"),
    ]
    return lines, ok


def cmd_demo_collision(ns) -> tuple[list, bool]:
    _require(1 <= ns.bits <= 8, "--bits must lie in 1..8")
    for flag in ("lwe_n", "lwe_q", "lwe_m", "lwe_mu"):
        _require(getattr(ns, flag) >= 1, f"--{flag.replace('_', '-')} must be positive")
    key_seed = stream_seed(ns.seed, ns.trials)  # off the per-trial stream range
    family_args = (
        ns.family,
        ns.bits,
        (ns.lwe_n, ns.lwe_q, ns.lwe_m, ns.lwe_mu),
        key_seed,
    )
    rewind_on = not ns.no_rewind
    # the trial builder refuses bad input before the exact figures are computed
    records = _trial_records(
        _build_collision, (family_args, rewind_on), ns.trials, ns.seed, ns.jobs
    )
    family, _ = _collision_family(family_args)
    delta = applications.family_delta_exact(family)
    import numpy as np

    images_distinct = int(np.unique(family.images_array()).size)
    if ns.family == "toy":
        family_flags = f"--bits {ns.bits}"
    else:
        family_flags = (
            f"--lwe-n {ns.lwe_n} --lwe-q {ns.lwe_q} "
            f"--lwe-m {ns.lwe_m} --lwe-mu {ns.lwe_mu}"
        )
    echo = (
        f"demo collision --family {ns.family} {family_flags} "
        f"--trials {ns.trials} --seed {ns.seed}"
        + ("" if rewind_on else " --no-rewind")
    )
    lines: list = [
        ("command", echo),
        ("family", family.name),
        ("domain_size", family.size),
        ("distinct_images", images_distinct),
        ("delta", delta),
        ("rewind", int(rewind_on)),
        ("trials", ns.trials),
        ("seed", ns.seed),
    ]
    lines += [(f"trial.{i}", record) for i, record in enumerate(records)]
    successes = sum(_field(r, "success") == "1" for r in records)
    invalid = sum(
        1 for r in records if _field(r, "success") == "1" and _field(r, "valid") == "0"
    )
    freq = successes / ns.trials
    lines += [("successes", successes), ("success_freq", freq), ("invalid_pairs", invalid)]
    ok = invalid == 0
    lines.append(("assert.pairs_verify", "pass" if ok else "fail"))
    if rewind_on:
        bound = float(applications.collision_success_probability(family))
        threshold = max(bound - 3.0 * math.sqrt(bound * (1.0 - bound) / ns.trials), 0.0)
        hit = freq >= threshold
        lines.append(("success_threshold", threshold))
        lines.append(("assert.success_freq", "pass" if hit else "fail"))
        ok = ok and hit
    elif images_distinct >= 256:
        hit = freq <= 0.05
        lines.append(("assert.success_freq<=0.05", "pass" if hit else "fail"))
        ok = ok and hit
    else:
        lines.append(("assert.success_freq", "skipped(fewer than 256 images)"))
    return lines, ok


def _read_truth_table(path: str) -> applications.BooleanFunction:
    """Table file: one binary output row per input, 2^n lines of m bits."""
    rows = []
    width = None
    for where, body in _numbered(path, "table"):
        if set(body) - {"0", "1"}:
            raise InputError(f"{where}rows must be binary, got {body!r}")
        if width is None:
            width = len(body)
        elif len(body) != width:
            raise InputError(f"{where}expected {width} bits per row")
        rows.append(int(body, 2))
    if not rows or rows and (len(rows) & (len(rows) - 1)):
        raise InputError(f"{path}: need a power-of-two number of rows, got {len(rows)}")
    return applications.BooleanFunction(len(rows).bit_length() - 1, tuple(rows), width)


def cmd_demo_sd(ns) -> tuple[list, bool]:
    c0, c1 = _read_truth_table(ns.c0), _read_truth_table(ns.c1)
    # the trial builder refuses bad input before the exact figures are computed
    records = _trial_records(_build_sd, (c0, c1), ns.trials, ns.seed, ns.jobs)
    p_err, p_err_prime, d_tv = applications.sd_error_exact(c0, c1)
    lines: list = [
        (
            "command",
            f"demo sd --c0 {ns.c0} --c1 {ns.c1} --trials {ns.trials} --seed {ns.seed}",
        ),
        ("input_bits", c0.n),
        ("output_bits", c0.output_bits),
        ("trials", ns.trials),
        ("seed", ns.seed),
        ("d_tv", d_tv),
        ("p_err", p_err),
        ("p_err_float", float(p_err)),
        ("p_err_prime", p_err_prime),
        ("p_err_prime_float", float(p_err_prime)),
    ]
    lines += [(f"trial.{i}", record) for i, record in enumerate(records)]
    differ = sum(_field(r, "differ") == "1" for r in records)
    freq = differ / ns.trials
    mean = float(p_err_prime)
    sigma = math.sqrt(mean * (1.0 - mean) / ns.trials)
    ok = abs(freq - mean) <= 3.0 * sigma if sigma > 0 else freq == mean
    lines += [
        ("differ", differ),
        ("differ_freq", freq),
        ("assert.within_3_sigma", "pass" if ok else "fail"),
    ]
    return lines, ok


def _read_pattern(path: str) -> list[tuple[int, int, float]]:
    """Pattern file: one ``measure <i> <j> theta <float>`` line per M qubit,
    the angle finite."""
    entries = []
    for where, body in _numbered(path, "pattern"):
        tokens = body.split()
        if len(tokens) != 5 or tokens[0] != "measure" or tokens[3] != "theta":
            raise InputError(f"{where}expected 'measure <i> <j> theta <float>'")
        try:
            i, j, theta = int(tokens[1]), int(tokens[2]), float(tokens[4])
        except ValueError:
            raise InputError(f"{where}bad vertex or angle") from None
        if not math.isfinite(theta):
            raise InputError(f"{where}theta must be a finite real angle, got {tokens[4]}")
        entries.append((i, j, theta))
    return entries


def cmd_demo_mbqc(ns) -> tuple[list, bool]:
    _require(ns.budget >= 0, "--budget cannot be negative")
    spec = mbqc.BrickworkSpec(ns.rows, ns.cols)
    if ns.pattern:
        pattern = mbqc.MeasurementPattern.from_grid(spec, _read_pattern(ns.pattern))
        if sorted(q for q, _ in pattern.entries) != sorted(spec.measured_qubits()):
            raise InputError(
                f"{ns.pattern}: pattern must measure every column but the last, "
                "each vertex once"
            )
        pattern_echo = ns.pattern
    else:
        pattern = mbqc.MeasurementPattern.identity(spec)
        pattern_echo = "identity"
    measured = len(pattern.entries)
    records = _trial_records(
        _build_mbqc,
        (ns.rows, ns.cols, pattern.entries, ns.budget),
        ns.trials,
        ns.seed,
        ns.jobs,
    )
    lines: list = [
        (
            "command",
            f"demo mbqc --rows {ns.rows} --cols {ns.cols} --pattern {pattern_echo} "
            f"--budget {ns.budget} --trials {ns.trials} --seed {ns.seed}",
        ),
        ("rows", ns.rows),
        ("cols", ns.cols),
        ("measured_qubits", measured),
        ("budget", ns.budget),
        ("trials", ns.trials),
        ("seed", ns.seed),
    ]
    lines += [(f"trial.{i}", record) for i, record in enumerate(records)]
    zeros = sum(_field(r, "all_zero") == "1" for r in records)
    freq = zeros / ns.trials
    expected = (1.0 - 2.0 ** -(ns.budget + 1)) ** measured
    threshold = max(expected - 3.0 * math.sqrt(expected * (1.0 - expected) / ns.trials), 0.0)
    fidelities = [
        float(_field(r, "fidelity")) for r in records if _field(r, "all_zero") == "1"
    ]
    lines += [
        ("all_zero", zeros),
        ("all_zero_freq", freq),
        ("all_zero_expected", expected),
        ("all_zero_threshold", threshold),
    ]
    freq_ok = freq >= threshold
    lines.append(("assert.all_zero_freq", "pass" if freq_ok else "fail"))
    if fidelities:
        fid_min = min(fidelities)
        fid_ok = fid_min >= 1.0 - 1e-9
        lines.append(("fidelity_min", fid_min))
        lines.append(("assert.fidelity", "pass" if fid_ok else "fail"))
    else:
        fid_ok = False
        lines.append(("assert.fidelity", "fail(no all-zero trial)"))
    ok = freq_ok and fid_ok
    return lines, ok


def cmd_demo_mitigate(ns) -> tuple[list, bool]:
    _require(0.0 < ns.p < 1.0, "--p must lie strictly between 0 and 1")
    _require(1 <= ns.n <= 8, "--n must lie in 1..8")
    rng = SplitMix64(stream_seed(ns.seed, 0))
    fs = mitigation.synthetic_flagged(ns.p)
    echo = f"demo mitigate --p {ns.p!r} --n {ns.n} --seed {ns.seed} --variant {ns.variant}"
    if ns.variant == "postselect":
        _require(ns.q is not None, "--variant postselect needs --q")
        _require(0.0 < ns.q < 1.0, "--q must lie strictly between 0 and 1")
        echo += f" --q {ns.q!r}"
    lines: list = [
        ("command", echo),
        ("p", ns.p),
        ("n", ns.n),
        ("seed", ns.seed),
        ("variant", ns.variant),
        ("initial_odds", mitigation.flag_odds(fs)),
    ]
    if ns.variant == "rewind":
        final, trace = mitigation.mitigate(fs, ns.n, rng=rng)
        for idx, (level, attempt, z) in enumerate(trace.events):
            lines.append((f"event.{idx}", f"level:{level},attempt:{attempt},z:{z}"))
        odds = mitigation.flag_odds(final)
        advanced = sum(1 for _, _, z in trace.events if z == 0)
        lines += [
            ("levels", 2 * ns.n + 3),
            ("level_successes", advanced),
            ("outcome", trace.outcome),
            ("final_odds", odds),
        ]
        ok = trace.outcome == mitigation.SUCCESS and odds >= 1.0
        lines.append(("assert.success_and_odds", "pass" if ok else "fail"))
        return lines, ok
    rounds = mitigation.postselect_rounds(ns.p, ns.q)
    final = mitigation.mitigate_postselect(fs, ns.q, rounds)
    target_prob = 1.0 - final.p
    ok = target_prob >= 0.5
    lines += [
        ("q", ns.q),
        ("rounds", rounds),
        ("target_prob", target_prob),
        ("final_odds", mitigation.flag_odds(final)),
        ("assert.target_prob>=0.5", "pass" if ok else "fail"),
    ]
    return lines, ok


# ---------------------------------------------------------------------------
# argument parsing and entry point


def _add_common(parser: argparse.ArgumentParser, jobs: bool = True) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    if jobs:
        parser.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes (never changes results, only wall time)",
        )
    parser.add_argument("--out", help="also write the report to this file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rwsim",
        description="quantum circuit simulation with rewinding, cloning, and postselection",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sim = sub.add_parser("simulate", help="run a circuit file")
    sim.add_argument("circuit", help="path to a circuit text file")
    sim.add_argument("--backend", choices=("sv", "stab", "pathsum"), default="sv")
    # sampling flags, None unless given (see _SAMPLING_FLAGS)
    sim.add_argument("--trials", type=int)
    sim.add_argument(
        "--min-postselect-prob",
        type=float,
        help="reject postselection branches below this probability",
    )
    _add_common(sim)
    sim.set_defaults(handler=cmd_simulate)

    demo = sub.add_parser("demo", help="seeded protocol demonstrations")
    demos = demo.add_subparsers(dest="demo", required=True)

    pp = demos.add_parser("pp", help="low-vs-high acceptance-count decision")
    pp.add_argument("--n", type=int, default=3, help="input bits per table")
    pp.add_argument("--trials", type=int, default=20)
    _add_common(pp)
    pp.set_defaults(handler=cmd_demo_pp)

    col = demos.add_parser("collision", help="collision finding with one rewind")
    col.add_argument("--family", choices=("toy", "lwe"), default="toy")
    col.add_argument("--bits", type=int, default=8, help="toy family image bits")
    col.add_argument("--lwe-n", type=int, default=1)
    col.add_argument("--lwe-q", type=int, default=8)
    col.add_argument("--lwe-m", type=int, default=2)
    col.add_argument("--lwe-mu", type=int, default=1)
    col.add_argument("--trials", type=int, default=1000)
    col.add_argument(
        "--no-rewind",
        action="store_true",
        help="replace the rewind with a second independent run",
    )
    _add_common(col)
    col.set_defaults(handler=cmd_demo_collision)

    sd = demos.add_parser("sd", help="statistical-difference decision")
    sd.add_argument("--c0", required=True, help="truth-table file for circuit 0")
    sd.add_argument("--c1", required=True, help="truth-table file for circuit 1")
    sd.add_argument("--trials", type=int, default=1000)
    _add_common(sd)
    sd.set_defaults(handler=cmd_demo_sd)

    mb = demos.add_parser("mbqc", help="brickwork pattern with measurement retries")
    mb.add_argument("--rows", type=int, default=2)
    mb.add_argument("--cols", type=int, default=5)
    mb.add_argument("--pattern", help="pattern file (default: all angles zero)")
    mb.add_argument("--budget", type=int, default=3, help="per-qubit rewind budget")
    mb.add_argument("--trials", type=int, default=100)
    _add_common(mb)
    mb.set_defaults(handler=cmd_demo_mbqc)

    mit = demos.add_parser("mitigate", help="amplitude mitigation trace")
    mit.add_argument("--p", type=float, required=True, help="initial nontarget probability")
    mit.add_argument("--n", type=int, default=4, help="schedule size (2n+3 levels)")
    mit.add_argument("--variant", choices=("rewind", "postselect"), default="rewind")
    mit.add_argument("--q", type=float, help="coin parameter for --variant postselect")
    _add_common(mit, jobs=False)
    mit.set_defaults(handler=cmd_demo_mitigate)

    return parser


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    for name in _BACKEND_MODULES.get(getattr(ns, "backend", None), _ALL_MODULES):
        importlib.import_module(name, __package__)
    start = time.perf_counter()
    try:
        lines, ok = ns.handler(ns)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime protocol failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    lines.append(("duration_s", time.perf_counter() - start))
    text = "".join(f"{key}={_fmt(value)}\n" for key, value in lines)
    sys.stdout.write(text)
    if ns.out:
        try:
            Path(ns.out).write_text(text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
