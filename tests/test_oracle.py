import math

import pytest
from hypothesis import given, settings, strategies as st

from dts import (
    DistributionProvider,
    DtsConfig,
    EnumeratedPath,
    InvalidInputError,
    PfsaModel,
    ProviderError,
    ResourceLimitError,
    ScriptedModel,
    TokenDistribution,
    enumerate_tree,
    run_dts,
    shortest_terminating,
    verify_dts_against_oracle,
)

from support import NOT_ID_SEQUENCE_NAMES, NOT_ID_SEQUENCES, RecordingProvider, one_hot_logits, random_pfsa, row


def geometric_pfsa(p_end=0.5):
    """Vocab {a=0, <e>=1}; every step ends with probability p_end."""
    return PfsaModel(
        initial_state="s",
        emissions={"s": [1.0 - p_end, p_end]},
        transitions={"s": {0: "s"}},
        end_tokens=[1],
    )


def full_fanout_config(provider, max_tokens):
    return DtsConfig(
        tau=0.0,
        k=provider.vocab_size,
        temperature=1.0,
        max_tokens=max_tokens,
        end_tokens=provider.end_tokens,
        max_branches=10**6,
    )


class TestEnumerateTree:
    def test_one_hot_chain_single_path(self):
        provider = ScriptedModel(
            rules=[([4, 4], one_hot_logits(6, 5, scale=1e9)), ([4], one_hot_logits(6, 4, scale=1e9))],
            default_logits=one_hot_logits(6, 4, scale=1e9),
            end_tokens=[5],
        )
        paths = enumerate_tree(provider, [], max_len=5)
        assert len(paths) == 1
        only = paths[0]
        assert only.tokens == (4, 4, 5) and only.length == 3
        assert only.probability == pytest.approx(1.0)

    def test_geometric_lengths_and_mass(self):
        paths = enumerate_tree(geometric_pfsa(), [], max_len=6)
        by_length = {p.length: p.probability for p in paths}
        assert by_length == {L: pytest.approx(0.5**L) for L in range(1, 7)}
        assert sum(by_length.values()) == pytest.approx(1 - 0.5**6)

    def test_prob_floor_prunes(self):
        paths = enumerate_tree(geometric_pfsa(), [], max_len=6, prob_floor=0.3)
        assert [(p.tokens, p.probability) for p in paths] == [((1,), 0.5)]

    @pytest.mark.parametrize("floor", [-0.1, math.nan], ids=["negative", "nan"])
    def test_bad_prob_floor_rejected(self, floor):
        with pytest.raises(InvalidInputError, match="prob_floor"):
            enumerate_tree(geometric_pfsa(), [], max_len=6, prob_floor=floor)

    def test_floor_monotonicity(self):
        model = random_pfsa(4, require_path_within=6)
        loose = {p.tokens for p in enumerate_tree(model, [], max_len=6, prob_floor=0.0)}
        for floor in (0.01, 0.1, 0.4):
            tight = {p.tokens for p in enumerate_tree(model, [], max_len=6, prob_floor=floor)}
            assert tight <= loose
            loose = tight

    def test_long_path_probability_underflows_to_zero(self):
        # 0.01 ** 199 is below the smallest positive float
        paths = enumerate_tree(geometric_pfsa(p_end=0.99), [], max_len=200)
        assert len(paths) == 200
        assert all(p.probability >= 0.0 for p in paths)
        assert any(p.probability == 0.0 for p in paths)

    @pytest.mark.parametrize("prompt", NOT_ID_SEQUENCES, ids=NOT_ID_SEQUENCE_NAMES)
    def test_prompt_that_is_not_a_sequence_of_ids_rejected(self, prompt):
        with pytest.raises(InvalidInputError, match="sequence of integers"):
            enumerate_tree(geometric_pfsa(), prompt, max_len=3)

    @pytest.mark.parametrize(
        "rows,error",
        [
            ([[0.5, 0.5]], "row of 2 entries for vocabulary size 3 at step 0"),
            ([[0.25] * 4], "row of 4 entries for vocabulary size 3 at step 0"),
            ([], "0 distributions for 1 branches at step 0"),
        ],
        ids=["short", "long", "missing"],
    )
    def test_bad_rows_are_provider_errors(self, rows, error):
        class BadRows(DistributionProvider):
            def next_distributions(self, prompt, sequences):
                return [TokenDistribution(probs) for probs in rows]

        provider = BadRows(3, [2])
        with pytest.raises(ProviderError, match=error):
            enumerate_tree(provider, [], max_len=3)
        with pytest.raises(ProviderError, match=error):
            run_dts(provider, [], full_fanout_config(provider, 3))

    def test_provider_failure_is_provider_error(self):
        class Exploding(DistributionProvider):
            def next_distributions(self, prompt, sequences):
                if sequences[0]:
                    raise RuntimeError("boom")
                return [TokenDistribution([0.5, 0.5])]

        with pytest.raises(ProviderError, match="step 1") as excinfo:
            enumerate_tree(Exploding(2, [1]), [], max_len=3)
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_work_limit_enforced(self):
        with pytest.raises(ResourceLimitError, match="3"):
            enumerate_tree(geometric_pfsa(), [], max_len=10, work_limit=3)

    def test_long_horizon_without_recursion(self):
        # one path: 2999 forced 0 tokens, then the end token 1
        emissions = {i: [1.0, 0.0] for i in range(2999)}
        emissions[2999] = [0.0, 1.0]
        chain = PfsaModel(0, emissions, {i: {0: i + 1} for i in range(2999)}, end_tokens=[1])
        provider = RecordingProvider(chain)
        paths = enumerate_tree(provider, [], max_len=3000)
        assert [(p.tokens, p.probability) for p in paths] == [((0,) * 2999 + (1,), 1.0)]
        assert provider.calls == 3000
        # depth first: a subtree's paths come before its parent's end token
        lengths = [p.length for p in enumerate_tree(geometric_pfsa(), [], max_len=6)]
        assert lengths == [6, 5, 4, 3, 2, 1]

    @given(st.integers(min_value=0, max_value=30))
    @settings(max_examples=15, deadline=None)
    def test_probability_conservation(self, seed):
        # terminated mass plus live prefix mass at the horizon is exactly 1
        model = random_pfsa(seed)
        max_len = 5
        paths = enumerate_tree(model, [], max_len=max_len)
        terminated = sum(p.probability for p in paths)

        def live_mass(tokens, prob, depth):
            if depth == max_len:
                return prob
            dist = row(model, (), tokens)
            total = 0.0
            for token in range(model.vocab_size):
                p = float(dist.probs[token])
                if p <= 0.0 or token in model.end_tokens:
                    continue
                total += live_mass(tokens + (token,), prob * p, depth + 1)
            return total

        assert terminated + live_mass((), 1.0, 0) == pytest.approx(1.0, abs=1e-9)

    def test_path_probabilities_match_pfsa_product_exactly(self):
        model = random_pfsa(12, require_path_within=6)
        for path in enumerate_tree(model, [], max_len=6):
            assert path.probability == model.sequence_probability(path.tokens)


class TestShortestTerminating:
    def path(self, tokens, probability):
        return EnumeratedPath(tokens=tuple(tokens), probability=probability, length=len(tokens))

    def test_min_length_with_multiplicity(self):
        paths = [self.path([1, 1, 2], 0.2), self.path([0] * 5, 0.5), self.path([3, 0, 2], 0.3)]
        min_length, at_min = shortest_terminating(paths)
        assert min_length == 3 and len(at_min) == 2
        assert at_min[0].tokens == (3, 0, 2)  # higher probability first

    def test_single_path(self):
        only = self.path([4, 2], 1.0)
        assert shortest_terminating([only]) == (2, [only])

    def test_probability_tie_sorted_lexicographically(self):
        a = self.path([2, 9], 0.25)
        b = self.path([1, 9], 0.25)
        _, at_min = shortest_terminating([a, b])
        assert [p.tokens for p in at_min] == [(1, 9), (2, 9)]

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            shortest_terminating([])


class TestVerifyAgainstOracle:
    def test_one_hot_chain_verifies(self):
        provider = ScriptedModel(
            rules=[([4], one_hot_logits(6, 5, scale=1e9))],
            default_logits=one_hot_logits(6, 4, scale=1e9),
            end_tokens=[5],
        )
        assert verify_dts_against_oracle(provider, [], full_fanout_config(provider, 4))

    def test_unique_shortest_completion(self):
        # end reachable only after visiting state 1: min length is 2
        model = PfsaModel(
            initial_state=0,
            emissions={0: [0.7, 0.3, 0.0], 1: [0.2, 0.3, 0.5]},
            transitions={0: {0: 1, 1: 0}, 1: {0: 1, 1: 0}},
            end_tokens=[2],
        )
        assert verify_dts_against_oracle(model, [], full_fanout_config(model, 6))

    def test_reduced_k_exposes_approximation_gap(self):
        # the immediate end token ranks third, outside K=2, so the engine
        # must settle for a longer completion than the oracle minimum
        provider = ScriptedModel(
            rules=[([0], one_hot_logits(3, 2, scale=1e9)), ([1], one_hot_logits(3, 2, scale=1e9))],
            default_logits=[math.log(0.45), math.log(0.35), math.log(0.2)],
            end_tokens=[2],
        )
        config = DtsConfig(
            tau=0.0, k=2, temperature=1.0, max_tokens=4,
            end_tokens=provider.end_tokens, max_branches=10**6,
        )
        assert not verify_dts_against_oracle(provider, [], config)
        full = full_fanout_config(provider, 4)
        assert verify_dts_against_oracle(provider, [], full)
