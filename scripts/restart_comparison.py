#!/usr/bin/env python3
"""Two-stage restart schedule against a fixed-small-batch baseline.

The tuned operating point sits at the critical scale for the initial budget;
when the budget grows eightfold, the restart plan quadruples the batch-
sequence product and halves the stepsize for the remainder. Both strategies
spend the same total tokens; the final losses are compared across seeds.
"""

import argparse
import json
from dataclasses import asdict

import numpy as np

from scgscale import experiments


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="restart_comparison.json")
    ap.add_argument("--trials", type=int, default=5)
    ap.add_argument("--seed-base", type=int, default=31)
    ap.add_argument("--budget-factor", type=float, default=8.0)
    args = ap.parse_args()

    out = experiments.restart_comparison(
        trials=args.trials, seed_base=args.seed_base, budget_factor=args.budget_factor
    )
    doc = {
        "stages": [asdict(s) for s in out["plan"].stages],
        "staged_final_losses": out["staged_losses"],
        "baseline_final_losses": out["baseline_losses"],
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
    wins = sum(
        a <= b for a, b in zip(out["staged_losses"], out["baseline_losses"])
    )
    print(f"wrote {args.out}")
    print(
        f"staged mean {np.mean(out['staged_losses']):.3e} vs fixed-batch mean "
        f"{np.mean(out['baseline_losses']):.3e}; staged wins {wins}/{args.trials}"
    )


if __name__ == "__main__":
    main()
