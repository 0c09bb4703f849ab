"""Scan the brickwork all-zeros frequency against the per-qubit retry budget.

Each budget b should land near (1 - 2^-(b+1))^|M| because every pattern
measurement is a fair coin; the table reports empirical frequency, the
analytic value, and the minimum conditioned output fidelity against the
one-shot projection oracle.

Usage: python3 scripts/brickwork_budget_scan.py --rows 2 --cols 5 --trials 400
"""

from __future__ import annotations

import argparse

from rwsim.circuit import sampler
from rwsim.mbqc import (
    BrickworkSpec,
    MeasurementPattern,
    pattern_circuit,
    pattern_oracle,
    reads_all_zero,
)
from rwsim.rng import SplitMix64, stream_seed
from rwsim.statevector import KERNEL, fidelity


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=2)
    parser.add_argument("--cols", type=int, default=5)
    parser.add_argument("--budgets", type=int, nargs="+", default=[0, 1, 2, 3, 5])
    parser.add_argument("--trials", type=int, default=400)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    spec = BrickworkSpec(args.rows, args.cols)
    pattern = MeasurementPattern.identity(spec)
    measured = len(pattern.entries)
    oracle = pattern_oracle(spec, pattern)

    print(f"# grid {args.rows}x{args.cols}, |M|={measured}, trials={args.trials}")
    print(f"{'budget':>6} {'freq':>8} {'analytic':>10} {'min_fidelity':>14}")
    for budget in args.budgets:
        trial = sampler(pattern_circuit(spec, pattern, budget), KERNEL)
        zeros = 0
        fid_min = 1.0
        for i in range(args.trials):
            result = trial(SplitMix64(stream_seed(args.seed + budget, i)))
            if reads_all_zero(result.record):
                zeros += 1
                fid_min = min(fid_min, fidelity(oracle, result.final_state.core))
        analytic = (1.0 - 2.0 ** -(budget + 1)) ** measured
        print(
            f"{budget:6d} {zeros / args.trials:8.4f} {analytic:10.6f} "
            f"{fid_min if zeros else float('nan'):14.12f}"
        )


if __name__ == "__main__":
    main()
