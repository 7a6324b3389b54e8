#!/usr/bin/env python3
"""Parametric rank profiles: seeded generation and the scoring oracle.

A mixture profile draws rank 1 with probability p1 and spreads the rest
over a truncated geometric tail; each popularity stratum attaches a
training popularity, constant or drawn from a range, to a band of ranks.  Generation is a pure function of
(profile, n, seed) -- a PCG64 stream -- so fixtures are reproducible
anywhere.  The independent oracle re-derives every score the slow way
to keep the fast path honest.
"""

from collections import Counter

from probe_eval import (MetricConfig, MixtureProfile, PopularityStratum, generate,
                        oracle_probe, probe_score)

PROFILE = MixtureProfile(
    p1=0.4,
    tail_rate=0.03,
    n_entities=5_000,
    popularity_model=(
        PopularityStratum(constant=2_000, max_rank=1),
        PopularityStratum(low=0, high=20),
    ))


def main():
    table = generate(PROFILE, 5_000, seed=11)
    ranks = Counter(table.ranks.tolist())
    print("most common ranks out of 5,000 draws "
          "(p1=0.4, geometric tail, rate 0.03):")
    for rank, count in ranks.most_common(8):
        print(f"  rank {rank:>3}: {count}")

    rank1_pop = set(table.pops[table.ranks == 1].tolist())
    tail_pop = table.pops[table.ranks > 1].tolist()
    print(f"\nrank-1 golds carry popularity {rank1_pop} by rule;"
          f" tail golds range {min(tail_pop)}..{max(tail_pop)}")

    again = generate(PROFILE, 5_000, seed=11)
    assert again.ranks.tolist() == table.ranks.tolist()
    assert again.pops.tolist() == table.pops.tolist()
    print("same seed regenerates the identical rank table.")

    for beta in (0.0, 0.8):
        config = MetricConfig(alpha=1.0, beta=beta, affine=True,
                              entity_count=PROFILE.n_entities)
        fast = probe_score(table, config)
        slow = oracle_probe(table, config)
        print(f"beta={beta}: score {fast:.6f}, oracle {slow:.6f}, "
              f"|diff| = {abs(fast - slow):.2e}")
    print("the popular rank-1 hits lose weight as beta grows, so the "
          "score drops.")


if __name__ == "__main__":
    main()
