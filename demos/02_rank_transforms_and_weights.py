#!/usr/bin/env python3
"""How the sharpness factor and the popularity weights shape a score.

The raw transform r**(-alpha) shrinks its range as alpha gets small; the
affine variant pins rank 1 at 1.0 and the worst rank at 0.0 regardless of
alpha, which keeps model scores comparable across sharpness levels.
Weights (epsilon + popularity)**(-beta) then decide how much a prediction
on a frequent entity is allowed to count.
"""

import numpy as np

from probe_eval import rt_affine, rt_raw
from probe_eval.metrics import popularity_weights

N_ENTITIES = 10_000
RANKS = (1, 2, 5, 10, 100, 1_000, N_ENTITIES)
ALPHAS = (0.25, 0.5, 1.0, 2.0)
BETAS = (0.0, 0.2, 0.4, 0.8)
POPULARITIES = (0, 1, 10, 100, 1_000, 7_614)


def table(title, rows, header):
    print(f"\n{title}")
    print("  " + "  ".join(f"{h:>10}" for h in header))
    for label, values in rows:
        print(f"  {label:>10}  " + "  ".join(f"{v:10.6f}" for v in values))


def main():
    table("raw transform r**(-alpha)",
          [(f"r={r}", [rt_raw(r, a) for a in ALPHAS]) for r in RANKS],
          [f"a={a}" for a in ALPHAS])
    print("note the bottom row: the worst rank still scores "
          f"{rt_raw(N_ENTITIES, 0.25):.4f} at alpha=0.25 -- the usable "
          "range shrinks as alpha drops.")

    table(f"affine transform, |E| = {N_ENTITIES}",
          [(f"r={r}", [rt_affine(r, a, N_ENTITIES) for a in ALPHAS])
           for r in RANKS],
          [f"a={a}" for a in ALPHAS])
    print("rank 1 is exactly 1.0 and the worst rank exactly 0.0 in every "
          "column: the full [0, 1] range survives any alpha.")

    # scaled so the largest weight, popularity 0's, is 1: each is (1 + d)**(-beta)
    weights = [popularity_weights(np.array(POPULARITIES), b, 1.0) for b in BETAS]
    table("weights (1 + popularity)**(-beta)",
          [(f"d={d}", [column[i] for column in weights])
           for i, d in enumerate(POPULARITIES)],
          [f"b={b}" for b in BETAS])
    print("beta=0 treats every query alike; larger beta discounts "
          "predictions whose gold entity was frequent in training.")


if __name__ == "__main__":
    main()
