#!/usr/bin/env python3
"""From model score rows to filtered ranks, under each tie policy.

A score row assigns one score per candidate entity.  The filtered
protocol removes candidates that would form a different known-true
triple, so a model is not punished for ranking an actually-true answer
above the gold one.  Ties are resolved by an explicit policy rather
than by array order.
"""

import tempfile
from pathlib import Path

import numpy as np

from probe_eval import (MetricConfig, RankTable, TiePolicy, filter_set, load_dataset,
                        make_queries, probe_score, rank_of_gold)
from probe_eval.ranking import ScoreRow

# a dataset directory's train, valid and test files
SPLITS = {
    "train.txt": "anna\tworks_at\tlab\nben\tworks_at\tlab\n"
                 "cara\tworks_at\tmill\nanna\tknows\tben\n",
    "valid.txt": "dave\tworks_at\tlab\n",
    "test.txt": "cara\tknows\tben\nerik\tworks_at\tlab\n",
}


def main():
    with tempfile.TemporaryDirectory(prefix="probe-eval-demo-") as workdir:
        for name, text in SPLITS.items():
            (Path(workdir) / name).write_text(text, encoding="utf-8")
        graph, popularity = load_dataset(workdir)
    queries = make_queries(graph, popularity)
    print(f"{len(graph.test)} test triples -> {len(queries)} masked queries\n")

    rng = np.random.default_rng(0)
    ranks = []
    for query in queries:
        scores = rng.random(graph.n_entities)
        scores[query.gold_id] = 0.62  # keep the gold competitive but beatable
        excluded = filter_set(query, graph)
        row = ScoreRow(query, scores)
        record = rank_of_gold(row, excluded, TiePolicy("average"))
        ranks.append(record.rank)
        raw = rank_of_gold(row, set(), TiePolicy("average"))
        names = sorted(graph.entity_labels[e] for e in excluded)
        print(f"query ({query.head}, {query.relation}, {query.tail}) "
              f"masking {query.direction.value}:")
        print(f"  filtered out: {names or 'nothing'}")
        print(f"  rank {record.rank} filtered vs {raw.rank} raw\n")

    # tie handling: three candidates share the gold's score
    tied = np.full(graph.n_entities, 0.5)
    row = ScoreRow(queries[0], tied)
    print("all candidates tied at 0.5:")
    for policy in ("optimistic", "average", "pessimistic"):
        print(f"  {policy:>11}: rank "
              f"{rank_of_gold(row, set(), TiePolicy(policy)).rank}")
    print(f"  {'random':>11}: rank "
          f"{rank_of_gold(row, set(), TiePolicy('random', seed=7)).rank} "
          "(seeded, reproducible)")

    # the scorers read columns: one key, rank and gold popularity per query
    table = RankTable(keys=["\t".join(q.key()) for q in queries],
                      ranks=np.array(ranks, dtype=np.int64),
                      pops=np.array([q.gold_popularity for q in queries], dtype=np.int64))
    config = MetricConfig(alpha=1.0, beta=0.0, affine=True,
                          entity_count=graph.n_entities)
    print(f"\naggregate score of this toy model: "
          f"{probe_score(table, config):.4f}")


if __name__ == "__main__":
    main()
