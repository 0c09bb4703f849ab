"""Seeded workload inputs for the rwsim benchmark.

Each workload turns the benchmark seed into the CLI commands of one round.
The program only ever sees the generated inputs: a master ``--seed`` for the
demos, and circuit files written under the benchmark's work directory for
``circuit-wide`` and ``tableau``.  The same benchmark seed always yields the
same commands and files.

The generators hold the cost of a round steady across seeds, so the spread
between seeds measures the program rather than the draw:

* ``pp`` picks the master seed whose trials draw exactly the table weights
  ``PP_WEIGHTS`` (trial time depends strongly on the weight, low tables stop
  the coin scan early);
* ``circuit-wide`` fixes the gate mix and places every branching gate before
  the projectors, so the path-sum walk always sees all of them;
* ``tableau`` builds a graph-state body, rewinds unconditionally and draws the
  retried qubit of block j from qubits 8j..8j+7, so the strict-rewind
  candidate scan has the same shape and length for every seed.
"""

from __future__ import annotations

import importlib.util
import random
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 0

# Trials per sampling command: sized so one round takes about two seconds on
# a 2-core box and a run of BENCHMARK.json's run_seconds holds about ten
# rounds, whose median rides out the neighbours' bursts of load.
COLLISION_TRIALS = 100
WIDE_TRIALS = 6
TABLEAU_TRIALS = 2
# Table weights of the ``pp`` trials, one low table and one high one.
PP_WEIGHTS = (5, 12)
PP_TRIALS = len(PP_WEIGHTS)

# 18 qubits: a 4 MiB state, twice one core's L2 and well inside the shared
# L3.  At 20 qubits (16 MiB) rounds interleaved with 18- and 16-qubit ones
# spread twice as much: the state then competes with the neighbours' use of
# the shared L3 and memory bandwidth, and the timing measured them.
WIDE_QUBITS = 18
WIDE_OTHER_GATES = 30
TABLEAU_QUBITS = 64
TABLEAU_LAYERS = 4
TABLEAU_BLOCKS = 8


@dataclass
class Workload:
    """One round: CLI commands run one after another, and what to check."""

    name: str
    commands: list[list[str]]  # the first one samples the trials
    trials: int
    exact: int | None = None  # index of the path-sum command, if any
    files: dict[str, str] = field(default_factory=dict)  # relative path -> text
    facts: dict = field(default_factory=dict)  # generator facts the checks use


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"rwsim-bench:{name}:{seed}")


def _sim(path: str, backend: str, trials: int, seed: int) -> list[str]:
    return [
        "simulate", path, "--backend", backend,
        "--trials", str(trials), "--seed", str(seed), "--jobs", "1",
    ]


def collision(seed: int, workdir: str) -> Workload:
    master = _rng("collision", seed).getrandbits(32)
    cmd = [
        "demo", "collision", "--family", "toy", "--bits", "8",
        "--trials", str(COLLISION_TRIALS), "--seed", str(master), "--jobs", "1",
    ]
    return Workload("collision", [cmd], COLLISION_TRIALS)


def _load_rng_module(root: Path):
    """The program's own SplitMix64 (stdlib only), loaded without numpy."""
    spec = importlib.util.spec_from_file_location(
        "_rwsim_rng", root / "src" / "rwsim" / "rng.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pp_weights(rng_module, master: int, trials: int, n: int = 4) -> list[int]:
    """Table weights ``demo pp`` draws for its trials (first draw of each stream)."""
    size = 1 << n
    return [
        1 + rng_module.SplitMix64(rng_module.stream_seed(master, i)).randrange(size)
        for i in range(trials)
    ]


def pp(seed: int, workdir: str, root: Path) -> Workload:
    """Master seed whose trials draw exactly the weights in ``PP_WEIGHTS``.

    Low tables (s < 8) stop the coin scan early, the lighter the sooner; high
    tables scan every coin parameter, so the weights fix most of a round's
    cost and the seed picks the tables and coin flips.
    """
    rng_module = _load_rng_module(root)
    draw = _rng("pp", seed)
    while True:
        master = draw.getrandbits(32)
        weights = pp_weights(rng_module, master, PP_TRIALS)
        if sorted(weights) == sorted(PP_WEIGHTS):
            break
    cmd = [
        "demo", "pp", "--n", "4", "--trials", str(PP_TRIALS),
        "--seed", str(master), "--jobs", "1",
    ]
    return Workload("pp", [cmd], PP_TRIALS, facts={"weights": weights})


def _wide_body(draw: random.Random) -> tuple[list[str], dict]:
    """18-qubit body: 8 branching gates, then diagonal/permutation gates.

    Qubit 0 is reserved for the retry block (an ``h`` and later only
    diagonal gates), so strict-rewind certification finds it first.  Every
    other qubit's basis distribution is a product of the branching layer,
    moved by ``x``/``swap``; that is how the generator picks a postselection
    with nonzero probability and an accept qubit with 0 < p_accept < 1.
    """
    n = WIDE_QUBITS
    lines = [f"qubits {n}"]
    # 8 branching gates: h on qubit 0, three h, two hk, two ch whose
    # controls are the hk qubits.
    fresh = draw.sample(range(1, n), 7)
    independent, controls, ch_targets = fresh[:3], fresh[3:5], fresh[5:]
    lines.append("gate h 0")
    for q in independent:
        lines.append(f"gate h {q}")
    for q in controls:
        lines.append(f"gate hk {draw.choice((-1, 1))} {q}")
    for c, t in zip(controls, ch_targets):
        lines.append(f"gate ch {c} {t}")
    source = list(range(n))  # wire -> which branching-layer qubit it carries
    # the same number of each kind in every seed: a 3-qubit gate costs the
    # dense kernel several times what a 1-qubit gate does
    kinds = ["s", "x", "cz", "ccz", "swap", "rz"] * (WIDE_OTHER_GATES // 6)
    draw.shuffle(kinds)
    movable = list(range(1, n))
    for kind in kinds:
        if kind in ("s", "rz"):
            q = draw.randrange(n)
            if kind == "s":
                lines.append(f"gate s {q}")
            else:
                lines.append(f"gate rz {draw.choice((0.25, 0.5, 1.0, 1.5))!r} {q}")
        elif kind == "x":
            lines.append(f"gate x {draw.choice(movable)}")
        elif kind == "cz":
            a, b = draw.sample(range(n), 2)
            lines.append(f"gate cz {a} {b}")
        elif kind == "ccz":
            a, b, c = draw.sample(range(n), 3)
            lines.append(f"gate ccz {a} {b} {c}")
        else:
            a, b = draw.sample(movable, 2)
            source[a], source[b] = source[b], source[a]
            lines.append(f"gate swap {a} {b}")
    wire_of = {src: wire for wire, src in enumerate(source)}
    post_src, accept_src = draw.sample(independent, 2)
    measure_src = draw.choice([q for q in fresh if q not in (post_src, accept_src)])
    facts = {
        "postselect": wire_of[post_src],
        "measure": wire_of[measure_src],
        "accept": wire_of[accept_src],
    }
    lines.append(f"postselect {facts['postselect']} = {draw.randrange(2)}")
    lines.append(f"measure {facts['measure']} -> m")
    return lines, facts


def circuit_wide(seed: int, workdir: str) -> Workload:
    draw = _rng("circuit-wide", seed)
    body, facts = _wide_body(draw)
    accept = f"accept {facts['accept']}"
    retry = [
        "snapshot retry",
        "measure 0 -> r1",
        "rewind retry if r1 == 1",
        "measure 0 -> r2 if r1 == 1",
        "clone retry",
    ]
    sv_path = f"{workdir}/circuit-wide-sv.qc"
    exact_path = f"{workdir}/circuit-wide-exact.qc"
    master = draw.getrandbits(32)
    return Workload(
        "circuit-wide",
        [
            _sim(sv_path, "sv", WIDE_TRIALS, master),
            ["simulate", exact_path, "--backend", "pathsum", "--seed", str(master)],
        ],
        WIDE_TRIALS,
        exact=1,
        files={
            sv_path: "\n".join(body + retry + [accept]) + "\n",
            exact_path: "\n".join(body + [accept]) + "\n",
        },
        facts=facts,
    )


_INVERSE = {"h": ["h"], "x": ["x"], "cz": ["cz"], "s": ["s", "s", "s"]}


def tableau(seed: int, workdir: str) -> Workload:
    """64-qubit Clifford body, 8 retry blocks, then body undone and x on one qubit.

    The body is ``h`` on every qubit, then layers of ``cz`` on a random
    perfect matching and random ``s``/``x``: a graph state with local phases,
    so every qubit's Z outcome is random and the tableau has the same shape
    for every seed.  (With ``h`` in later layers the certification cost of
    one seed differed from another's by up to 1.7x.)

    Block j measures a qubit from 8j..8j+7, rewinds, measures it again and
    then once more; that last measurement is deterministic.  The rewind is
    unconditional so every trial certifies exactly 8 rewinds: with a
    retry-on-1 block the trial cost followed the coin flips of the late,
    expensive blocks.  Cloning the post-body snapshot, applying the inverse
    body and ``x`` leaves the accept qubit in |1>, so every trial's accept
    bit is exactly 1.
    """
    draw = _rng("tableau", seed)
    n = TABLEAU_QUBITS
    gates: list[tuple[str, tuple[int, ...]]] = [("h", (q,)) for q in range(n)]
    for _ in range(TABLEAU_LAYERS):
        order = list(range(n))
        draw.shuffle(order)
        for a, b in zip(order[0::2], order[1::2]):
            gates.append(("cz", (a, b)))
        for q in range(n):
            kind = draw.choice(("s", "x", None))
            if kind:
                gates.append((kind, (q,)))
    lines = [f"qubits {n}"]
    lines += [f"gate {g} {' '.join(map(str, t))}" for g, t in gates]
    lines.append("snapshot body")
    retried = []
    for j in range(TABLEAU_BLOCKS):
        q = 8 * j + draw.randrange(8)
        retried.append(q)
        lines += [
            f"snapshot b{j}",
            f"measure {q} -> a{j}",
            f"rewind b{j}",
            f"measure {q} -> r{j}",
            f"measure {q} -> d{j}",
        ]
    lines.append("clone body")
    for g, t in reversed(gates):
        lines += [f"gate {inv} {' '.join(map(str, t))}" for inv in _INVERSE[g]]
    accept = draw.randrange(n)
    lines += [f"gate x {accept}", f"accept {accept}"]
    path = f"{workdir}/tableau.qc"
    master = draw.getrandbits(32)
    return Workload(
        "tableau",
        [_sim(path, "stab", TABLEAU_TRIALS, master)],
        TABLEAU_TRIALS,
        files={path: "\n".join(lines) + "\n"},
        facts={"blocks": TABLEAU_BLOCKS, "retried": retried},
    )


def build(name: str, seed: int, workdir: str, root: Path) -> Workload:
    if name == "pp":
        return pp(seed, workdir, root)
    return {"collision": collision, "circuit-wide": circuit_wide, "tableau": tableau}[name](
        seed, workdir
    )


NAMES = ("collision", "pp", "circuit-wide", "tableau")
