"""Correctness checks on rwsim reports.

Every check returns a list of failure reasons; an empty list means the
report passed.  The benchmark counts a command run as failed when any check
on it returns a reason, and ``bench/selfcheck.py`` shows each check firing
on a deliberately corrupted report.
"""

from __future__ import annotations

import hashlib
import math

PROB_TOL = 1e-12  # path-sum probabilities are compared numerically, not as bytes
SIGMAS = 4.0


def parse(text: str) -> list[tuple[str, str]]:
    """``key=value`` lines; split on the last '=' (assert keys hold operators)."""
    pairs = []
    for line in text.splitlines():
        key, _, value = line.rpartition("=")
        pairs.append((key, value))
    return pairs


def body(text: str) -> list[str]:
    """Every report line except the timing line."""
    return [line for line in text.splitlines() if not line.startswith("duration_s=")]


def duration(text: str) -> float | None:
    for key, value in parse(text):
        if key == "duration_s":
            return float(value)
    return None


def command(returncode: int, text: str) -> list[str]:
    """A run fails if it exits non-zero or any ``assert.*`` line reads fail."""
    reasons = []
    if returncode != 0:
        reasons.append(f"exit code {returncode}")
    for key, value in parse(text):
        if key.startswith("assert.") and value.startswith("fail"):
            reasons.append(f"{key}={value}")
    if duration(text) is None:
        reasons.append("no duration_s line")
    return reasons


def wide(sv_text: str, exact_text: str) -> list[str]:
    """Sampled accept frequency within 4 sigma of the path-sum p_accept."""
    sv = dict(parse(sv_text))
    exact = dict(parse(exact_text))
    try:
        freq = float(sv["accept_freq"])
        trials = int(sv["trials"])
        p = float(exact["p_accept"])
    except (KeyError, ValueError) as exc:
        return [f"missing or malformed field: {exc}"]
    if not 0.0 < p < 1.0:
        return [f"p_accept={p!r} is not strictly between 0 and 1"]
    sigma = math.sqrt(p * (1.0 - p) / trials)
    if abs(freq - p) > SIGMAS * sigma:
        return [f"accept_freq={freq!r} is more than {SIGMAS:g} sigma from p_accept={p!r}"]
    return []


def tableau(text: str, blocks: int) -> list[str]:
    """Accept bit 1 on every trial; each re-measurement repeats the last outcome."""
    reasons = []
    trials = [(k, v) for k, v in parse(text) if k.startswith("trial.")]
    if not trials:
        return ["no trial lines"]
    for key, record in trials:
        bits = dict(part.split(":", 1) for part in record.split(","))
        if bits.get("accept") != "1":
            reasons.append(f"{key}: accept bit {bits.get('accept')!r}, expected 1")
        for j in range(blocks):
            last = bits.get(f"r{j}")
            if last is None or bits.get(f"d{j}") != last:
                reasons.append(
                    f"{key}: re-measurement d{j}={bits.get(f'd{j}')!r} differs from {last!r}"
                )
    return reasons


def split_probabilities(lines: list[str]) -> tuple[list[str], dict[str, float]]:
    """Separate path-sum probability lines from the byte-compared rest."""
    kept, probs = [], {}
    for line in lines:
        key, _, value = line.rpartition("=")
        if key == "p_accept" or key.startswith("p."):
            probs[key] = float(value)
        else:
            kept.append(line)
    return kept, probs


def fingerprint(bodies: list[list[str]], exact: int | None) -> dict:
    """Digest of a round's report bodies; the path-sum body keeps its numbers."""
    hashed: list[str] = []
    probs: dict[str, float] = {}
    for i, lines in enumerate(bodies):
        if i == exact:
            lines, probs = split_probabilities(lines)
        hashed += lines + ["--"]
    digest = hashlib.sha256("\n".join(hashed).encode()).hexdigest()
    return {"sha256": digest, "probabilities": probs}


def matches(stored: dict, got: dict) -> list[str]:
    """Compare a round's fingerprint with the digest stored for the default seed."""
    reasons = []
    if stored["sha256"] != got["sha256"]:
        reasons.append("report body differs from the stored digest")
    want, have = stored["probabilities"], got["probabilities"]
    if set(want) != set(have):
        reasons.append(f"probability keys {sorted(have)} differ from {sorted(want)}")
    for key in set(want) & set(have):
        if abs(want[key] - have[key]) > PROB_TOL:
            reasons.append(f"{key}={have[key]!r} differs from stored {want[key]!r}")
    return reasons
