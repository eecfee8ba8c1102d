#!/usr/bin/env python3
"""Calibrated desk-scale experiments of scgscale.experiments.

  regime   batch-scale sweep at a fixed token budget on the calibrated
           quadratic: loss against BS, with the interior minimum set against
           the predicted critical scale and the large-batch tail slope
  rates    token-budget rate study on the logistic objective with BS pinned
           at the critical scale: the log-log slope of loss against budget
           (the flat regime predicts -1/3)
  restart  two-stage restart schedule against spending the whole budget at
           the tuned small batch: final losses across seeds

Each command writes its curve to --out (CSV, or JSON for restart) and prints
the headline numbers. Example: python3 scripts/experiments.py regime --jobs 4
"""

import argparse
import csv
import json
import math
from dataclasses import asdict

import numpy as np

from scgscale import experiments

FMT = "{:.17g}".format


def regime(args):
    """Sweep BS over powers of two at the budget 2^log2_budget, repeating each
    point over seeds, and write the measured-vs-predicted rows in the
    sweep.csv layout."""
    if args.log2_budget < 2:
        raise SystemExit("--log2-budget must be at least 2: the grid is BS = 2^0 .. 2^(budget-2)")
    result, consts, bs_star = experiments.regime_sweep(
        T=float(2**args.log2_budget),
        exponents=tuple(range(0, min(19, args.log2_budget - 1))),
        repetitions=args.repetitions,
        seed_base=args.seed_base,
        jobs=args.jobs,
    )
    experiments.sweep_rows_to_csv(result, args.out)

    bs = np.array([r.B * r.S for r in result.rows])
    losses = np.array([r.final_loss_mean for r in result.rows])
    idx = int(np.argmin(losses))
    window = bs > 8.0 * bs_star
    if np.count_nonzero(window) >= 2:
        slope = f"{np.polyfit(np.log(bs[window]), np.log(losses[window]), 1)[0]:.2f}"
    else:
        slope = "undefined (fewer than 2 grid points)"
    return [
        f"constants: L={consts.L:.4g} mu={consts.mu:.4g} rho={consts.rho:.4g} "
        f"sigma*={consts.sigma_star:.4g}",
        f"critical scale 2^{math.log2(bs_star):.2f}, measured minimum at "
        f"2^{math.log2(bs[idx]):.0f} (factor {max(bs[idx]/bs_star, bs_star/bs[idx]):.2f})",
        f"large-batch slope beyond 8x critical: {slope}",
    ]


def rates(args):
    """Estimate the logistic constants from a pilot run, then train once per
    budget with BS = critical(T) and the 1/K stepsize rule; write
    (T, BS, K, mean loss) rows."""
    lo, hi = (int(v) for v in args.log2_budgets.split(":"))
    out = experiments.middle_regime_rates(
        t_exponents=tuple(range(lo, hi)),
        repetitions=args.repetitions,
        seed_base=args.seed_base,
    )
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["T", "BS", "K", "final_loss_mean"])
        for T, bs, m in zip(out["budgets"], out["critical_scales"], out["mean_losses"]):
            w.writerow([FMT(T), FMT(bs), int(T // bs), FMT(m)])
    c = out["constants"]
    return [
        f"estimated constants: L={c.L:.4g} mu={c.mu:.4g} rho={c.rho:.4g}",
        f"log-log slope of final loss vs budget: {out['slope']:.3f} (predicted -1/3)",
    ]


def restart(args):
    """Tune at the critical scale for the initial budget; when the budget
    grows by budget_factor, the restart plan grows BS and cuts the stepsize
    for the remainder. Both strategies spend the same tokens; write the plan's
    stages and both strategies' final losses."""
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
    wins = sum(a <= b for a, b in zip(out["staged_losses"], out["baseline_losses"]))
    return [
        f"staged mean {np.mean(out['staged_losses']):.3e} vs fixed-batch mean "
        f"{np.mean(out['baseline_losses']):.3e}; staged wins {wins}/{args.trials}"
    ]


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(func, help, out, seed_base):
        p = sub.add_parser(func.__name__, help=help, description=func.__doc__)
        p.add_argument("--out", default=out)
        p.add_argument("--seed-base", type=int, default=seed_base)
        p.set_defaults(func=func)
        return p

    p = command(regime, "loss vs batch scale, fixed budget", "regime_sweep.csv", 2024)
    p.add_argument("--repetitions", type=int, default=5)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--log2-budget", type=int, default=20)
    p = command(rates, "loss vs budget at the critical scale", "middle_regime_rate.csv", 77)
    p.add_argument("--repetitions", type=int, default=5)
    p.add_argument("--log2-budgets", default="14:23", help="start:stop exponents")
    p = command(restart, "two-stage restart vs fixed batch", "restart_comparison.json", 31)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--budget-factor", type=float, default=8.0)

    args = ap.parse_args()
    lines = args.func(args)
    print(f"wrote {args.out}")
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
