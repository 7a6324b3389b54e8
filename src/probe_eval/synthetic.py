"""Parametric synthetic rank tables and an independent scoring oracle.

Profiles either replay an explicit rank multiset or sample a two-part
mixture: rank 1 with probability p1, and a truncated geometric tail over
ranks 2..n_entities.  Sampling uses NumPy's PCG64 generator (named,
seedable, portable), so a (profile, n, seed) triple always reproduces the
same records.

oracle_probe re-derives the aggregate score in one naive pure-Python loop,
sharing no code with the metrics module; it exists to cross-check the main
implementation.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np

from .errors import ValidationError, open_text
from .ranking import RankTable

_MAX_ITEMS = sys.maxsize // 8  # NumPy refuses a larger array of 8-byte items


def _require_int(name: str, value, minimum: int) -> None:
    # bool is an int subclass, but a JSON true is not a count; counts are
    # held in int64 columns
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value >= 2 ** 63:
        raise ValidationError(f"{name} must be < 2**63, got {value}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")


@dataclass(frozen=True)
class PopularityStratum:
    """One ``popularity_model`` entry: the popularity of a gold ranked <= max_rank
    (None = all remaining ranks), a constant or drawn from [low, high]."""

    constant: int | None = None
    low: int | None = None
    high: int | None = None
    max_rank: int | None = None

    def __post_init__(self):
        if self.constant is not None:
            if self.low is not None or self.high is not None:
                raise ValidationError("popularity rule is either constant or a range")
            _require_int("popularity constant", self.constant, 0)
        else:
            if self.low is None or self.high is None:
                raise ValidationError("range popularity rule needs low and high")
            _require_int("popularity low", self.low, 0)
            _require_int("popularity high", self.high, self.low)
        if self.max_rank is not None:
            _require_int("stratum max_rank", self.max_rank, 1)

    def draw(self, rng: np.random.Generator) -> int:
        if self.constant is not None:
            return self.constant
        return int(rng.integers(self.low, self.high + 1))


@dataclass(frozen=True)
class ExplicitProfile:
    """Replay an exact rank multiset with per-record popularities."""

    ranks: tuple[int, ...]
    popularities: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(self.ranks))  # a profile file gives lists
        if not self.ranks:
            raise ValidationError("explicit profile needs at least one rank")
        for rank in self.ranks:
            _require_int("explicit profile rank", rank, 1)
        if self.popularities is not None:
            object.__setattr__(self, "popularities", tuple(self.popularities))
            if len(self.popularities) != len(self.ranks):
                raise ValidationError(
                    f"popularities length {len(self.popularities)} != "
                    f"ranks length {len(self.ranks)}")
            for pop in self.popularities:
                _require_int("explicit profile popularity", pop, 0)


@dataclass(frozen=True)
class MixtureProfile:
    """Rank 1 w.p. p1; truncated geometric tail over ranks 2..n_entities.

    The tail pmf is g*(1-g)**(r-2) normalized over the truncation window,
    scaled by (1 - p1).
    """

    p1: float
    tail_rate: float
    n_entities: int
    popularity_model: tuple[PopularityStratum, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if isinstance(self.p1, bool) or not 0.0 <= self.p1 <= 1.0:
            raise ValidationError(f"p1 must be in [0, 1], got {self.p1}")
        if isinstance(self.tail_rate, bool) or not 0.0 < self.tail_rate <= 1.0:
            raise ValidationError(f"tail_rate must be in (0, 1], got {self.tail_rate}")
        _require_int("n_entities", self.n_entities, 2)
        # popularity_for applies the first rule covering a rank; no rank exceeds n_entities
        bounds = [min(s.max_rank or self.n_entities, self.n_entities)
                  for s in self.popularity_model]
        if bounds != sorted(set(bounds)):
            raise ValidationError(f"a popularity_model rule can never apply: rank bounds "
                                  f"{bounds} (max_rank, at most n_entities) must strictly ascend")

    def pmf(self) -> np.ndarray:
        """Probability of each rank 1..n_entities."""
        ranks = np.arange(2, self.n_entities + 1, dtype=np.float64)
        g = self.tail_rate
        tail = g * np.power(1.0 - g, ranks - 2.0)
        tail = tail / tail.sum() * (1.0 - self.p1)
        return np.concatenate(([self.p1], tail))

    def popularity_for(self, rank: int, rng: np.random.Generator) -> int:
        for stratum in self.popularity_model:
            if stratum.max_rank is None or rank <= stratum.max_rank:
                return stratum.draw(rng)
        return 0


RankProfile = Union[ExplicitProfile, MixtureProfile]


def profile_from_dict(data: dict) -> RankProfile:
    """The profile a JSON object describes: its fields other than "kind" go to the
    constructor of its kind, and each popularity_model entry to PopularityStratum."""
    if not isinstance(data, dict):
        raise ValidationError(f"profile must be a JSON object, got {type(data).__name__}")
    fields = dict(data)
    kind = fields.pop("kind", None)
    try:
        if kind == "explicit":
            return ExplicitProfile(**fields)
        if kind == "mixture":
            model = fields.get("popularity_model", [])
            if not (isinstance(model, list) and all(isinstance(entry, dict) for entry in model)):
                raise ValidationError("popularity_model must be a list of objects")
            fields["popularity_model"] = tuple(PopularityStratum(**entry) for entry in model)
            return MixtureProfile(**fields)
    except TypeError as exc:  # a missing, unknown or mistyped field
        raise ValidationError(f"invalid {kind} profile: {exc}") from None
    raise ValidationError(f"profile kind must be 'explicit' or 'mixture', got {kind!r}")


def load_profile(path: str | Path) -> RankProfile:
    with open_text(path) as handle:
        text = handle.read()  # a decoding error is open_text's ParseError
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # over 4,300 digits or too deep: no .msg
        raise ValidationError(f"invalid profile JSON: {getattr(exc, 'msg', exc)}",
                              path=path) from None
    return profile_from_dict(data)


def generate(profile: RankProfile, n: int, seed: int) -> RankTable:
    """Sample n records from the profile; pure function of (profile, n, seed)."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")

    if isinstance(profile, ExplicitProfile):
        if n != len(profile.ranks):
            raise ValidationError(
                f"explicit profile has {len(profile.ranks)} ranks but n={n}")
        ranks = np.array(profile.ranks, dtype=np.int64)
        pops = np.array(profile.popularities or (0,) * n, dtype=np.int64)
    else:
        size = max(n, profile.n_entities)
        if size > _MAX_ITEMS:
            raise MemoryError(f"{size} ranks do not fit in one array")
        rng = np.random.default_rng(seed)
        ranks = rng.choice(profile.n_entities, size=n, p=profile.pmf()) + 1
        pops = np.array([profile.popularity_for(rank, rng) for rank in ranks.tolist()],
                        dtype=np.int64)
    # deterministic query labels keyed by position so tables from two
    # profiles with the same n match query-for-query in sweeps
    keys = [f"q{i:06d}\tsynthetic\te{i:06d}\ttail" for i in range(n)]
    return RankTable(keys, ranks, pops)


def oracle_probe(table: RankTable, config) -> float:
    """Direct single-loop re-derivation of the aggregate score.

    Its config is a MetricConfig, so the cell is valid; it re-derives only
    the arithmetic.  Naive left-to-right summation on purpose: at the sizes
    tested, any disagreement with the main path beyond float noise flags a real bug.
    """
    if not len(table):
        raise ValidationError("cannot score an empty record list")
    alpha = config.alpha
    if config.affine:
        denominator = 1.0 - config.entity_count ** -alpha

    numerator = 0.0
    total_weight = 0.0
    for rank, popularity in zip(table.ranks.tolist(), table.pops.tolist()):
        if rank < 1:
            raise ValidationError(f"rank must be >= 1, got {rank}")
        score = float(rank) ** -alpha
        if config.affine:
            if rank > config.entity_count:
                raise ValidationError(
                    f"rank {rank} exceeds entity_count {config.entity_count}")
            score = (score - 1.0) / denominator + 1.0
        w = (config.epsilon + popularity) ** -config.beta
        numerator += w * score
        total_weight += w
    return numerator / total_weight
