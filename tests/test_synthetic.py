"""Profile parsing, deterministic generation, and the independent oracle."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_records
from probe_eval.errors import ValidationError
from probe_eval.metrics import MetricConfig, probe_score
from probe_eval.synthetic import (ExplicitProfile, MixtureProfile, PopularityStratum,
                                  generate, load_profile, oracle_probe,
                                  profile_from_dict)


class TestExplicitProfile:
    def test_passthrough_in_order(self):
        profile = ExplicitProfile(ranks=(1, 2, 4), popularities=(0, 3, 9))
        table = generate(profile, 3, seed=0)
        assert table.ranks.tolist() == [1, 2, 4]
        assert table.pops.tolist() == [0, 3, 9]

    def test_n_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            generate(ExplicitProfile(ranks=(1, 2)), 3, seed=0)

    def test_popularity_length_checked(self):
        with pytest.raises(ValidationError):
            ExplicitProfile(ranks=(1, 2), popularities=(1,))

    def test_rank_lower_bound(self):
        with pytest.raises(ValidationError):
            ExplicitProfile(ranks=(0,))

    def test_negative_popularity_rejected(self):
        with pytest.raises(ValidationError,
                           match=r"^explicit profile popularity must be >= 0, got -1$"):
            ExplicitProfile(ranks=(1, 2), popularities=(1, -1))

    def test_counts_beyond_int64_rejected(self):
        """Ranks and popularities are held in int64 columns."""
        for make in (lambda: ExplicitProfile(ranks=(2 ** 63,)),
                     lambda: ExplicitProfile(ranks=(1,), popularities=(2 ** 63,)),
                     lambda: PopularityStratum(low=0, high=2 ** 63),
                     lambda: MixtureProfile(p1=0.5, tail_rate=0.5, n_entities=2 ** 63)):
            with pytest.raises(ValidationError, match=r"< 2\*\*63"):
                make()


class TestMixtureProfile:
    def test_degenerate_all_rank_one(self):
        profile = MixtureProfile(p1=1.0, tail_rate=0.5, n_entities=100)
        table = generate(profile, 50, seed=1)
        assert (table.ranks == 1).all()

    def test_rank_one_fraction_concentrates(self):
        profile = MixtureProfile(p1=0.5, tail_rate=0.1, n_entities=1000)
        table = generate(profile, 10_000, seed=7)
        fraction = sum(1 for r in table.ranks.tolist() if r == 1) / len(table)
        assert abs(fraction - 0.5) <= 0.02

    def test_ranks_stay_in_window(self):
        profile = MixtureProfile(p1=0.2, tail_rate=0.9, n_entities=5)
        table = generate(profile, 2000, seed=3)
        assert all(1 <= r <= 5 for r in table.ranks.tolist())

    def test_pmf_tail_mass(self):
        profile = MixtureProfile(p1=0.3, tail_rate=0.05, n_entities=500)
        pmf = profile.pmf()
        assert pmf[0] == 0.3
        assert abs(pmf[1:].sum() - 0.7) <= 1e-9
        assert len(pmf) == 500

    def test_point_tail_at_rate_one(self):
        profile = MixtureProfile(p1=0.5, tail_rate=1.0, n_entities=10)
        table = generate(profile, 500, seed=5)
        assert set(table.ranks.tolist()) <= {1, 2}

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            MixtureProfile(p1=1.5, tail_rate=0.5, n_entities=10)
        with pytest.raises(ValidationError):
            MixtureProfile(p1=0.5, tail_rate=0.0, n_entities=10)
        with pytest.raises(ValidationError):
            MixtureProfile(p1=0.5, tail_rate=0.5, n_entities=1)

    def test_popularity_strata(self):
        profile = MixtureProfile(
            p1=0.5, tail_rate=0.2, n_entities=50,
            popularity_model=(
                PopularityStratum(constant=1000, max_rank=1),
                PopularityStratum(low=2, high=5),
            ))
        table = generate(profile, 1000, seed=11)
        for rank, popularity in zip(table.ranks.tolist(), table.pops.tolist()):
            if rank == 1:
                assert popularity == 1000
            else:
                assert 2 <= popularity <= 5

    def test_default_popularity_is_zero(self):
        profile = MixtureProfile(p1=0.5, tail_rate=0.2, n_entities=50)
        table = generate(profile, 100, seed=2)
        assert (table.pops == 0).all()

    def test_strata_order_validated(self):
        """A rule whose bound (max_rank, at most n_entities) does not exceed every
        earlier one can never apply: descending, after an open rule, equal, and
        after a rule past n_entities."""
        for max_ranks, bounds in [((5, 1), r"\[5, 1\]"), ((None, 1), r"\[50, 1\]"),
                                  ((3, 3), r"\[3, 3\]"), ((100, None), r"\[50, 50\]")]:
            with pytest.raises(ValidationError, match=(
                    rf"^a popularity_model rule can never apply: rank bounds {bounds} "
                    r"\(max_rank, at most n_entities\) must strictly ascend$")):
                MixtureProfile(
                    p1=0.5, tail_rate=0.2, n_entities=50,
                    popularity_model=tuple(PopularityStratum(constant=k, max_rank=max_rank)
                                           for k, max_rank in enumerate(max_ranks)))
        with pytest.raises(ValidationError, match=r"^stratum max_rank must be >= 1, got 0$"):
            PopularityStratum(constant=1, max_rank=0)


class TestDeterminism:
    def test_same_seed_same_records(self):
        profile = MixtureProfile(p1=0.4, tail_rate=0.3, n_entities=200,
                                 popularity_model=(PopularityStratum(low=0, high=9),))
        a = generate(profile, 500, seed=77)
        b = generate(profile, 500, seed=77)
        assert a.ranks.tolist() == b.ranks.tolist()
        assert a.pops.tolist() == b.pops.tolist()

    def test_different_seeds_differ(self):
        profile = MixtureProfile(p1=0.4, tail_rate=0.3, n_entities=200)
        a = generate(profile, 500, seed=1)
        b = generate(profile, 500, seed=2)
        assert a.ranks.tolist() != b.ranks.tolist()

    def test_query_labels_align_across_profiles(self):
        sharp = generate(ExplicitProfile(ranks=(1, 100)), 2, seed=0)
        steady = generate(ExplicitProfile(ranks=(2, 2)), 2, seed=9)
        assert sharp.keys == steady.keys

    def test_generate_validates_arguments(self):
        profile = ExplicitProfile(ranks=(1,))
        with pytest.raises(ValidationError):
            generate(profile, 0, seed=0)
        with pytest.raises(ValidationError):
            generate(profile, 1, seed=-1)


class TestProfileJson:
    def test_explicit_roundtrip(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "kind": "explicit", "ranks": [1, 2, 4], "popularities": [0, 1, 2]}),
            encoding="utf-8")
        profile = load_profile(path)
        assert isinstance(profile, ExplicitProfile)
        assert profile.ranks == (1, 2, 4)

    def test_mixture_with_strata(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "kind": "mixture", "p1": 0.6, "tail_rate": 0.1, "n_entities": 100,
            "popularity_model": [
                {"max_rank": 1, "constant": 50},
                {"low": 0, "high": 3},
            ]}), encoding="utf-8")
        profile = load_profile(path)
        assert isinstance(profile, MixtureProfile)
        assert profile.popularity_model == (PopularityStratum(constant=50, max_rank=1),
                                            PopularityStratum(low=0, high=3))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="kind"):
            profile_from_dict({"kind": "gaussian"})

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValidationError, match="JSON"):
            load_profile(path)

    def test_rule_shape_validation(self):
        with pytest.raises(ValidationError,
                           match=r"^popularity rule is either constant or a range$"):
            PopularityStratum(constant=1, low=0, high=2)
        with pytest.raises(ValidationError, match=r"^popularity high must be >= 5, got 2$"):
            PopularityStratum(low=5, high=2)
        with pytest.raises(ValidationError, match=r"^range popularity rule needs low and high$"):
            PopularityStratum()
        with pytest.raises(ValidationError, match=r"^popularity constant must be >= 0, got -1$"):
            PopularityStratum(constant=-1)


class TestOracle:
    def test_hand_computed_mrr_case(self):
        records = make_records([1, 2, 4])
        cfg = MetricConfig(alpha=1.0, beta=0.0, affine=False)
        assert oracle_probe(records, cfg) == pytest.approx(7.0 / 12.0, rel=1e-15)

    def test_all_rank_one(self):
        records = make_records([1, 1, 1], pops=[0, 5, 50])
        cfg = MetricConfig(alpha=2.0, beta=0.9, affine=True, entity_count=10)
        assert oracle_probe(records, cfg) == pytest.approx(1.0, abs=1e-15)

    def test_validations_mirror_probe_score(self):
        cfg = MetricConfig(affine=False)
        with pytest.raises(ValidationError):
            oracle_probe(make_records([]), cfg)
        with pytest.raises(ValidationError):
            oracle_probe(make_records([20]),
                         MetricConfig(affine=True, entity_count=10))

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_probe_score(self, data):
        n = data.draw(st.integers(1, 300))
        n_entities = data.draw(st.integers(2, 50_000))
        ranks = data.draw(st.lists(st.integers(1, n_entities),
                                   min_size=n, max_size=n))
        pops = data.draw(st.lists(st.integers(0, 10_000),
                                  min_size=n, max_size=n))
        cfg = MetricConfig(
            alpha=data.draw(st.floats(0.01, 4.0)),
            beta=data.draw(st.floats(0.0, 2.0)),
            epsilon=data.draw(st.sampled_from([1e-6, 1.0])),
            affine=data.draw(st.booleans()),
            entity_count=n_entities)
        records = make_records(ranks, pops)
        assert probe_score(records, cfg) == \
            pytest.approx(oracle_probe(records, cfg), rel=1e-10)
