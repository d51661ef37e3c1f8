import random
from fractions import Fraction

import pytest

from teamcomp import explorer
from teamcomp.analysis import abandon, add_dominated
from teamcomp.explorer import (
    GainRecord,
    SearchConfig,
    SweepSummary,
    default_recruit_cap,
    generate_instance,
    max_gain,
    random_square_spec,
    random_transitive_spec,
    random_weak_tail_spec,
    rationals_up_to_denominator,
    records_to_csv,
    spec_digest,
    sweep,
)
from teamcomp.model import GameModelError, ValidationError, make_spec, validate_spec
from teamcomp.instances import named_instance
from teamcomp.solver import solve

F = Fraction


class TestRationalPool:
    def test_denominator_six_pool(self):
        pool = rationals_up_to_denominator(6)
        assert len(pool) == 13  # 0, 1 and the reduced fractions between
        assert pool[0] == 0 and pool[-1] == 1
        assert all(0 <= q <= 1 and q.denominator <= 6 for q in pool)

    def test_denominator_one_pool(self):
        assert rationals_up_to_denominator(1) == (F(0), F(1))

    def test_bad_bound(self):
        with pytest.raises(ValidationError):
            rationals_up_to_denominator(0)


class TestGenerateInstance:
    def test_deterministic(self):
        config = SearchConfig(seed=1, instances=5)
        assert generate_instance(config, 0) == generate_instance(config, 0)

    def test_index_independence(self):
        # Changing the instance count must not change earlier instances.
        small = SearchConfig(seed=1, instances=5)
        large = SearchConfig(seed=1, instances=50)
        assert generate_instance(small, 3) == generate_instance(large, 3)

    def test_outputs_validate(self):
        config = SearchConfig(seed=3, instances=25, t_range=(2, 4), m_range=(2, 6))
        for index in range(25):
            validate_spec(generate_instance(config, index))

    @pytest.mark.parametrize("index", [1.5, True, "1"])
    def test_index_type(self, index):
        with pytest.raises(ValidationError) as err:
            generate_instance(SearchConfig(seed=0, instances=3), index)
        assert err.value.code == "PARSE"

    def test_index_range(self):
        config = SearchConfig(seed=1, instances=2)
        with pytest.raises(ValidationError):
            generate_instance(config, 2)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SearchConfig(seed=1, instances=0)
        with pytest.raises(ValidationError):
            SearchConfig(seed=1, instances=1, t_range=(3, 2))
        with pytest.raises(ValidationError):
            SearchConfig(seed=1, instances=1, utility="XX")

    def test_size_range_past_player_limit_rejected_before_drawing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("drew a roster")

        monkeypatch.setattr(explorer, "random_strength_rows", refuse)
        monkeypatch.setattr(explorer, "_permutation_pattern_rows", refuse)
        with pytest.raises(ValidationError) as info:
            generate_instance(SearchConfig(seed=0, instances=1, m_range=(2, 400)), 0)
        assert info.value.code == "SIZE"

    def test_negative_recruit_cap(self):
        with pytest.raises(ValidationError) as info:
            SearchConfig(seed=1, instances=1, max_recruits=-1)
        assert info.value.code == "SIZE"
        assert SearchConfig(seed=1, instances=1, max_recruits=0).max_recruits == 0

    @pytest.mark.parametrize(
        "fields",
        [
            {"utility": 5},
            {"instances": 2.5},
            {"t_range": (2, 3.0)},
            {"m_range": (2.5, 4)},
            {"max_recruits": True},
            {"seed": 1.5},
            {"seed": True},
            {"seed": "x"},
        ],
        ids=[
            "utility", "instances", "t_range", "m_range", "max_recruits",
            "seed", "seed bool", "seed str",
        ],
    )
    def test_config_types(self, fields):
        with pytest.raises(ValidationError) as info:
            SearchConfig(**{"seed": 0, "instances": 2, **fields})
        assert info.value.code == "PARSE"

    @pytest.mark.parametrize(
        "fields", [{"t_range": (2, 3, 4)}, {"t_range": (2,)}, {"m_range": (2, 3, 4)}]
    )
    def test_ranges_are_pairs(self, fields):
        with pytest.raises(ValidationError) as info:
            SearchConfig(seed=0, instances=2, **fields)
        assert info.value.code == "SHAPE"

    def test_negative_seed(self):
        assert SearchConfig(seed=-3, instances=1).seed == -3

    def test_config_stores_canonical_utility(self):
        config = SearchConfig(seed=0, instances=1, utility=" ue")
        assert config.utility == "UE"
        summary = sweep(config)
        assert summary.bound == 1
        assert summary.to_document()["utility"] == "UE"


class TestMaxGain:
    def test_identity_family_gain(self, ex3_um):
        base = abandon(ex3_um, 1, [3])  # 3x3 identity pattern, majority scoring
        record = max_gain(base, 1, utility_name="UM")
        assert record.gain == F(2, 3)
        assert record.recruits_used == 1

    def test_ladder_gain_saturates(self):
        record = max_gain(named_instance("ex5:3"), 2, utility_name="UM")
        assert record.gain == F(1, 9)
        assert record.recruits_used == 1  # the second recruit adds nothing

    def test_zero_recruits_zero_gain(self, card_spec):
        record = max_gain(card_spec, 0)
        assert record.gain == 0 and record.recruits_used == 0

    def test_best_value_monotone_in_cap(self):
        base = abandon(named_instance("ex3", "UM"), 1, [3])
        values = [max_gain(base, cap).best_value for cap in range(3)]
        assert values == sorted(values)

    def test_weak_tail_ue_gain_is_zero(self):
        # Consistency with the tail-abandonment guarantee: recruits are
        # weaker than everyone, Team 2 has no spares, expected-wins scoring.
        rng = random.Random("ue-zero-gain")
        for _ in range(3):
            spec = random_weak_tail_spec(rng, 2, 3, 4)
            trimmed = abandon(spec, 1, [2])
            assert max_gain(trimmed, 2).gain == 0

    @pytest.mark.parametrize(
        "cap, code",
        [(1.5, "PARSE"), ("2", "PARSE"), (None, "PARSE"), (True, "PARSE"), (-1, "SIZE")],
        ids=["float", "str", "none", "bool", "negative"],
    )
    def test_recruit_cap_refused(self, card_spec, cap, code):
        with pytest.raises(ValidationError) as err:
            max_gain(card_spec, cap)
        assert err.value.code == code

    @pytest.mark.parametrize(
        "spec, cap, code",
        [
            # T=4, 5x5: sixteen recruits pass the 20-player limit.
            (generate_instance(SearchConfig(0, 300, t_range=(2, 4)), 12), 16, "SIZE"),
            # T=10: the 20x10 rung has 230M classes, over the default budget.
            (random_square_spec(random.Random(0), 10, 4, "UM"), 10, "BUDGET"),
        ],
        ids=["size", "budget"],
    )
    def test_top_rung_refused_before_any_solve(self, monkeypatch, spec, cap, code):
        # The ladder is solved largest rung first, so a rung over the player
        # limit or the class budget costs no solve of a smaller one.
        top, asked = spec.team1_size + cap, []

        def spy(rung, **kwargs):
            asked.append(rung.team1_size)
            if rung.team1_size != top:
                pytest.fail(f"the {rung.team1_size}-player rung was solved first")
            return solve(rung, **kwargs)

        monkeypatch.setattr(explorer, "solve", spy)
        with pytest.raises(GameModelError) as err:
            max_gain(spec, cap)
        assert err.value.code == code
        assert asked == ([] if code == "SIZE" else [top])

    def test_digest_stable(self, card_spec):
        assert spec_digest(card_spec) == spec_digest(card_spec)
        assert len(spec_digest(card_spec)) == 12


def spy_on_rungs(monkeypatch, spec):
    """Record the recruit count of every rung ``explorer.solve`` is asked for."""
    asked = []

    def spy(rung, **kwargs):
        asked.append(rung.team1_size - spec.team1_size)
        return solve(rung, **kwargs)

    monkeypatch.setattr(explorer, "solve", spy)
    return asked


class TestMaxGainScan:
    # Ladders of T=2 and T=3 contests from the sweep's streams: random
    # strengths and 0/1 permutation patterns, up to four recruits.
    CAP = 4
    STREAM = SearchConfig(seed=5, instances=12, t_range=(2, 3), m_range=(2, 4))
    # Utility tables that rise and fall with the win count.
    NON_MONOTONE = {2: ("1", "-2", "1/2"), 3: ("0", "1", "-1", "2")}

    @pytest.mark.parametrize("utility", ["UE", "UM", "non-monotone"])
    def test_matches_every_rung(self, monkeypatch, utility):
        # The record equals one built from solving every rung 0..R, and the
        # rungs solved are the top, then 0, 1, ... up to the first that
        # reaches the top's value, each once.
        seen = set()
        for index in range(self.STREAM.instances):
            spec = generate_instance(self.STREAM, index)
            table = self.NON_MONOTONE[spec.rounds] if utility == "non-monotone" else utility
            spec = make_spec(spec.rounds, spec.strength.entries, table)
            rungs = [solve(add_dominated(spec, c)).root_value for c in range(self.CAP + 1)]
            for cap in range(self.CAP + 1):
                asked = spy_on_rungs(monkeypatch, spec)
                record = max_gain(spec, cap)
                values = rungs[: cap + 1]
                best = max(values)
                assert (record.base_value, record.best_value, record.recruits_used) == (
                    values[0],
                    best,
                    values.index(best),
                )
                scanned = range(min(record.recruits_used, cap - 1) + 1) if cap else []
                assert asked == [cap, *scanned]
                if record.gain == 0:
                    seen.add("zero")
                else:
                    seen.add("top" if record.recruits_used == cap else "below")
        # Each ladder shape occurs: no gain, a gain first reached below the
        # top rung, and one reached only at the top.
        assert seen == {"zero", "below", "top"}

    def test_zero_gain_solves_the_top_and_the_base(self, monkeypatch):
        spec = abandon(random_weak_tail_spec(random.Random("ue-zero-gain"), 2, 3, 4), 1, [2])
        asked = spy_on_rungs(monkeypatch, spec)
        assert max_gain(spec, 3).gain == 0
        assert asked == [3, 0]

    @pytest.mark.parametrize(
        "name, cap, used", [("ex5:3", 2, 1), ("ex5:3", 3, 1), ("ex5:4", 2, 2), ("ex5:4", 3, 2)]
    )
    def test_gain_solves_up_to_its_recruit_count(self, monkeypatch, name, cap, used):
        spec = named_instance(name)
        asked = spy_on_rungs(monkeypatch, spec)
        record = max_gain(spec, cap)
        assert record.gain > 0 and record.recruits_used == used
        assert asked == [cap, *range(min(used, cap - 1) + 1)]

    def test_cap_zero_solves_one_rung(self, monkeypatch, card_spec):
        asked = spy_on_rungs(monkeypatch, card_spec)
        record = max_gain(card_spec, 0)
        assert asked == [0]
        assert record.base_value == record.best_value == solve(card_spec).root_value


class TestSweep:
    def test_deterministic(self):
        config = SearchConfig(seed=11, instances=20)
        assert sweep(config) == sweep(config)

    def test_gain_nonnegative_and_csv_shape(self):
        config = SearchConfig(seed=12, instances=15, utility="UE")
        summary = sweep(config)
        assert all(r.gain >= 0 for r in summary.records)
        csv = records_to_csv(summary.records)
        lines = csv.strip().splitlines()
        assert lines[0] == "index,T,m,n,utility,recruits_used,base_value,best_value,gain"
        assert len(lines) == 16

    def test_bound_by_utility(self):
        ue = sweep(SearchConfig(seed=1, instances=3, utility="UE"))
        um = sweep(SearchConfig(seed=1, instances=3, utility="UM"))
        assert ue.bound == F(1)
        assert um.bound == F(2, 3)

    def test_summary_derives_from_records(self):
        config = SearchConfig(seed=0, instances=4, utility="UE")

        def record(index, best):
            return GainRecord(index, f"d{index}", 2, 2, 2, "UE", 1, F(0), best)

        records = (record(0, F(1, 3)), record(1, F(1, 2)), record(2, F(1, 2)))
        summary = SweepSummary(config, records, ())
        assert summary.witness == records[1]  # the first of the largest gains
        assert summary.max_gain == F(1, 2)
        assert (summary.witness_index, summary.witness_digest) == (1, "d1")
        assert summary.bound == 1 and not summary.exceeds_bound
        none = SweepSummary(config, (record(0, F(0)),), (3,))
        assert (none.witness, none.max_gain, none.witness_index) == (None, 0, None)
        with pytest.raises(AttributeError):
            summary.max_gain = F(5)

    def test_summary_vocabulary(self):
        summary = sweep(SearchConfig(seed=13, instances=10))
        doc = summary.to_document()
        assert doc["status"] in (
            "consistent with the conjectured bound",
            "counterexample candidate: observed gain exceeds the conjectured bound",
        )
        assert doc["max_gain"].count("/") <= 1

    def test_oversized_instances_are_skipped(self):
        # One recruit takes a 20-player Team 1 past the 20-player limit.
        config = SearchConfig(
            seed=0, instances=2, t_range=(1, 1), m_range=(20, 20), max_recruits=1
        )
        summary = sweep(config)
        assert summary.records == ()
        assert summary.skipped == (0, 1)
        assert summary.to_document()["skipped"] == [0, 1]

    def test_sweep_that_solved_nothing_says_so(self):
        config = SearchConfig(
            seed=0, instances=2, t_range=(1, 1), m_range=(20, 20), max_recruits=1
        )
        doc = sweep(config).to_document()
        assert doc["status"] == "no instance solved"
        assert doc["witness_index"] is None

    def test_other_model_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValidationError("broken instance", "PARSE")

        monkeypatch.setattr(explorer, "max_gain", broken)
        with pytest.raises(ValidationError):
            sweep(SearchConfig(seed=0, instances=1))

    def test_default_caps(self):
        assert default_recruit_cap(4, "UE") == 3
        assert default_recruit_cap(4, "UM") == 2
        assert default_recruit_cap(3, "UM") == 1
        assert default_recruit_cap(4, " ue ") == 3

    def test_default_cap_rejects_unknown_utility(self):
        for name in ("bogus", "", "U E"):
            with pytest.raises(ValidationError) as info:
                default_recruit_cap(4, name)
            assert info.value.code == "PARSE"

    @pytest.mark.parametrize(
        "rounds, code", [(3.5, "PARSE"), ("3", "PARSE"), (True, "PARSE"), (0, "SIZE"), (-4, "SIZE")]
    )
    @pytest.mark.parametrize("utility", ["UE", "UM"])
    def test_default_cap_round_count(self, rounds, utility, code):
        with pytest.raises(ValidationError) as info:
            default_recruit_cap(rounds, utility)
        assert info.value.code == code

    def test_summary_flags_gain_above_bound(self):
        config = SearchConfig(seed=0, instances=1, utility="UE")
        record = GainRecord(0, "d0", 2, 2, 2, "UE", 1, F(-1), F(1, 2))
        doc = SweepSummary(config, (record,), ()).to_document()
        assert doc["status"] == (
            "counterexample candidate: observed gain exceeds the conjectured bound"
        )
        assert doc["max_gain"] == "3/2"


class TestGeneratorHelpers:
    def test_transitive_generator_is_transitive(self):
        from teamcomp.analysis import classify

        rng = random.Random("trans-gen")
        for _ in range(10):
            spec = random_transitive_spec(rng, 2, 4, 5, 6, "UE")
            assert all(team.transitive for team in classify(spec))

    def test_weak_tail_needs_spares(self):
        with pytest.raises(ValidationError) as info:
            random_weak_tail_spec(random.Random("tail-gen"), 2, 2, 6)
        assert info.value.code == "SIZE"

    def test_weak_tail_generator_structure(self):
        from teamcomp.analysis import weaker_team1

        rng = random.Random("tail-gen")
        for _ in range(10):
            spec = random_weak_tail_spec(rng, 2, 4, 6)
            assert spec.team2_size == 2
            for tail in range(2, 4):
                for head in range(2):
                    assert weaker_team1(spec.strength, tail, head)
