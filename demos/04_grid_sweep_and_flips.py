#!/usr/bin/env python3
"""Two defensible models, two verdicts: sweeping alpha exposes the choice.

"sharp" nails 60% of its queries at rank 1 but badly misses the rest;
"steady" always lands rank 2.  Under a strict view (large alpha) the
perfect hits dominate; under a lenient one (small alpha) consistency
wins.  The sweep scores both on every (alpha, beta) cell and reports the
pair as a ranking flip, with the crossover visible in the surface data.
"""

import tempfile
from pathlib import Path

from probe_eval import (ExplicitProfile, MetricConfig, SweepGrid, generate,
                        rank_histogram, run_sweep, surface_export)

N = 1_000
N_ENTITIES = 10_000


def main():
    sharp = generate(ExplicitProfile(ranks=(1,) * 600 + (100,) * 400), N, seed=0)
    steady = generate(ExplicitProfile(ranks=(2,) * N), N, seed=0)
    models = {"sharp": sharp, "steady": steady}

    print("rank histograms (bin lower bounds 1, 2, 6, 11, 101):")
    for name, records in models.items():
        counts = [b.count for b in rank_histogram(records)]
        print(f"  {name:>6}: {counts}")

    config = MetricConfig(alpha=1.0, beta=0.0, affine=True,
                          entity_count=N_ENTITIES)
    result = run_sweep(models, SweepGrid(), config)

    print("\nscores at beta=0 (winner starred):")
    print(f"  {'alpha':>6} {'sharp':>10} {'steady':>10}")
    for alpha in result.grid.alphas:
        s = result.cells[(alpha, 0.0)]["sharp"]
        t = result.cells[(alpha, 0.0)]["steady"]
        mark = "sharp*" if s > t else "steady*"
        print(f"  {alpha:>6} {s:>10.4f} {t:>10.4f}  {mark}")

    flips = [f for f in result.flips if set(f.pair) == {"sharp", "steady"}]
    print(f"\n{len(flips)} cells reverse the base-cell (alpha=1, beta=0) order:")
    for flip in flips:
        print(f"  at (alpha={flip.cell[0]}, beta={flip.cell[1]}): "
              f"{flip.cell_order[0]} now beats {flip.cell_order[1]}")

    with tempfile.TemporaryDirectory(prefix="probe-eval-demo-") as workdir:
        out = Path(workdir) / "surface.csv"
        surface_export(result, out)
        lines = out.read_text().splitlines()
    print(f"\nplot-ready surface export, {len(lines) - 1} rows in long format:")
    print("\n".join(f"  {line}" for line in lines[:4]))
    print("  ...\nany long-format plotting tool reads it as model,alpha,beta,score")


if __name__ == "__main__":
    main()
