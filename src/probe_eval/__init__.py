"""Rank-based evaluation for knowledge graph completion.

Implements a sharpness-parameterized rank transformer with affine
rescaling to [0, 1], popularity-aware weighted aggregation, the classic
MR / MRR / Hits@K baselines, filtered-rank computation from score rows,
(alpha, beta) grid sweeps with ranking-flip detection, and synthetic
rank-profile generation for testing and demonstrations.
"""

__version__ = "0.1.0"

from .errors import ParseError, ValidationError
from .kg_data import (DatasetStats, KnowledgeGraph, compute_popularity, dataset_stats,
                      export_vocabulary, load_dataset)
from .metrics import (MetricConfig, Stratum, default_bucket_edges, hits_at_k,
                      mr, mrr, probe_score, rt_affine, rt_raw,
                      stratified_breakdown)
from .ranking import (Direction, Query, RankTable, ScoreRow, TiePolicy,
                      filter_set, load_rank_file, make_queries, rank_of_gold,
                      rank_score_file, write_rank_file)
from .sweep import (CellRanking, Flip, RankBin, SweepGrid, SweepResult,
                    find_flips, rank_histogram, run_sweep, surface_export)
from .synthetic import (ExplicitProfile, MixtureProfile, PopularityStratum,
                        RankProfile, generate, load_profile, oracle_probe,
                        profile_from_dict)

__all__ = [
    "__version__",
    "ParseError", "ValidationError",
    "DatasetStats", "KnowledgeGraph",
    "compute_popularity", "dataset_stats", "export_vocabulary", "load_dataset",
    "MetricConfig", "Stratum", "default_bucket_edges",
    "hits_at_k", "mr", "mrr", "probe_score", "rt_affine", "rt_raw",
    "stratified_breakdown",
    "Direction", "Query", "RankTable", "ScoreRow", "TiePolicy",
    "filter_set", "load_rank_file", "make_queries", "rank_of_gold",
    "rank_score_file", "write_rank_file",
    "CellRanking", "Flip", "RankBin", "SweepGrid", "SweepResult", "find_flips",
    "rank_histogram", "run_sweep", "surface_export",
    "ExplicitProfile", "MixtureProfile", "PopularityStratum", "RankProfile",
    "generate", "load_profile", "oracle_probe", "profile_from_dict",
]
