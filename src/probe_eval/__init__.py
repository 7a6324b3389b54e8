"""Rank-based evaluation for knowledge graph completion.

Implements a sharpness-parameterized rank transformer with affine
rescaling to [0, 1], popularity-aware weighted aggregation, the classic
MR / MRR / Hits@K baselines, filtered-rank computation from score rows,
(alpha, beta) grid sweeps with ranking-flip detection, and synthetic
rank-profile generation for testing and demonstrations.

``import probe_eval`` imports no NumPy: each public name loads its module on first use.
The command line runs OpenBLAS on one thread unless ``OPENBLAS_NUM_THREADS`` is set.
"""

import importlib

__version__ = "0.1.0"

_HOME_OF = {name: module for module, names in {  # public name -> the module defining it
    "errors": "ParseError ValidationError",
    "kg_data": "DatasetStats KnowledgeGraph compute_popularity dataset_stats export_vocabulary "
               "load_dataset",
    "metrics": "MetricConfig Stratum default_bucket_edges hits_at_k mr mrr probe_score rt_affine "
               "rt_raw stratified_breakdown",
    "ranking": "Direction Query RankTable ScoreRow TiePolicy filter_set load_rank_file "
               "make_queries rank_of_gold rank_score_file write_rank_file",
    "sweep": "CellRanking Flip SweepGrid SweepResult find_flips rank_histogram run_sweep "
             "surface_export",
    "synthetic": "ExplicitProfile MixtureProfile PopularityStratum RankProfile generate "
                 "load_profile oracle_probe profile_from_dict",
}.items() for name in names.split()}
__all__ = ["__version__", *_HOME_OF]


def __getattr__(name: str):
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
