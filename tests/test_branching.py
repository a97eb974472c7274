import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dts import (
    DtsConfig,
    InvalidInputError,
    SplitMix64,
    TokenDistribution,
    branch_function,
    entropy,
    sample_token,
    top_k_tokens,
)
from dts.branching import softmax

from support import FixedRng


def dist(*probs):
    return TokenDistribution(np.asarray(probs, dtype=float))


def uniform(n):
    return TokenDistribution(np.full(n, 1.0 / n))


def one_hot(n, hot):
    row = np.zeros(n)
    row[hot] = 1.0
    return TokenDistribution(row)


def config(tau, k=3, seed=0):
    return DtsConfig(tau=tau, k=k, temperature=1.0, max_tokens=16, end_tokens=frozenset({0}), seed=seed)


prob_vectors = st.lists(
    st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=40
).map(lambda w: TokenDistribution(np.asarray(w) / np.sum(w)))


class TestSoftmax:
    def test_symmetric_logits_give_uniform(self):
        assert np.allclose(softmax([0, 0, 0, 0]).probs, 0.25, atol=1e-12)

    def test_closed_form_two_point(self):
        # exp(ln 2) : exp(0) normalizes to 2/3 : 1/3
        result = softmax([math.log(2), 0.0])
        assert abs(result.probs[0] - 2 / 3) < 1e-12
        assert abs(result.probs[1] - 1 / 3) < 1e-12

    def test_huge_temperature_flattens(self):
        result = softmax(np.array([10.0, 0.0]) / 1e9)
        assert np.allclose(result.probs, 0.5, atol=1e-6)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            softmax([1.0, float("nan")])
        with pytest.raises(InvalidInputError):
            softmax([1.0, float("inf")])

    @given(
        st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=12),
        st.floats(min_value=0.05, max_value=50),
    )
    def test_sums_to_one(self, logits, temperature):
        total = float(softmax(np.asarray(logits) / temperature).probs.sum())
        assert abs(total - 1.0) < 1e-6

    @given(
        st.lists(st.floats(min_value=-8, max_value=8), min_size=2, max_size=10).filter(
            lambda xs: max(xs) - min(xs) > 0.1
        ),
        st.floats(min_value=0.2, max_value=4.0),
        st.floats(min_value=1.2, max_value=3.0),
    )
    @settings(max_examples=60)
    def test_entropy_increases_with_temperature(self, logits, t1, ratio):
        t2 = t1 * ratio
        # with every probability >= 1e-9 the entropy gap is >~1e-12, far above
        # float64 resolution; a smaller one can add less than one ulp to the sum
        assume(softmax(np.asarray(logits) / t1).probs.min() >= 1e-9)
        assert entropy(softmax(np.asarray(logits) / t1)) < entropy(
            softmax(np.asarray(logits) / t2)
        )


class TestEntropy:
    @pytest.mark.parametrize("n", [2, 4, 16, 1024])
    def test_uniform_is_log_n(self, n):
        assert abs(entropy(uniform(n)) - math.log(n)) < 1e-9

    def test_one_hot_is_exactly_zero(self):
        assert entropy(one_hot(4, 2)) == 0.0

    def test_mixed_hand_computed(self):
        # frozen via arbitrary-precision summation
        assert abs(entropy(dist(0.5, 0.25, 0.25)) - 1.0397207708399179641) < 1e-9
        assert abs(entropy(dist(0.7, 0.2, 0.1)) - 0.80181855254333730856) < 1e-9

    @given(prob_vectors)
    def test_bounds(self, d):
        h = entropy(d)
        assert 0.0 <= h <= math.log(d.vocab_size) + 1e-9

    def test_away_from_corners_is_strictly_positive(self):
        assert entropy(dist(0.99, 0.01)) > 1e-9
        assert entropy(dist(0.9, 0.05, 0.05)) > 1e-9


class TestTopK:
    def test_tie_broken_by_ascending_id(self):
        assert [t for t, _ in top_k_tokens(dist(0.1, 0.5, 0.2, 0.2), 3)] == [1, 2, 3]

    def test_full_tie_resolved_by_id(self):
        assert [t for t, _ in top_k_tokens(uniform(16), 3)] == [0, 1, 2]

    def test_one_hot_top_one(self):
        assert top_k_tokens(one_hot(10, 7), 1) == [(7, 0.0)]

    def test_k_above_vocab_rejected(self):
        with pytest.raises(InvalidInputError):
            top_k_tokens(uniform(4), 5)

    def test_logprobs_match_probs(self):
        result = top_k_tokens(dist(0.1, 0.5, 0.4), 2)
        assert result[0] == (1, pytest.approx(math.log(0.5)))
        assert result[1] == (2, pytest.approx(math.log(0.4)))

    @given(prob_vectors, st.integers(min_value=1, max_value=40))
    @settings(max_examples=80)
    def test_matches_exhaustive_sort_oracle(self, d, k):
        if k > d.vocab_size:
            k = d.vocab_size
        expected = sorted(range(d.vocab_size), key=lambda i: (-d.probs[i], i))[:k]
        assert [t for t, _ in top_k_tokens(d, k)] == expected

    @given(prob_vectors, st.integers(min_value=1, max_value=40))
    def test_deterministic(self, d, k):
        if k > d.vocab_size:
            k = d.vocab_size
        assert top_k_tokens(d, k) == top_k_tokens(d, k)


class TestSampleToken:
    def test_one_hot_any_draw(self):
        for u in (0.0, 0.3, 0.999):
            assert sample_token(one_hot(5, 3), FixedRng([u])) == (3, 0.0)

    def test_inverse_cdf_by_hand(self):
        d = dist(0.5, 0.5)
        assert sample_token(d, FixedRng([0.25]))[0] == 0
        assert sample_token(d, FixedRng([0.75]))[0] == 1

    def test_uniform_ten_upper_tail(self):
        assert sample_token(uniform(10), FixedRng([0.95]))[0] == 9

    def test_zero_probability_token_never_chosen(self):
        d = dist(0.5, 0.0, 0.5)
        chosen = {sample_token(d, FixedRng([u]))[0] for u in np.linspace(0, 0.999, 97)}
        assert chosen == {0, 2}

    def test_consumes_exactly_one_draw(self):
        rng = FixedRng([0.4, 0.9])
        sample_token(dist(0.25, 0.75), rng)
        assert rng.draws == 1

    def test_empirical_frequencies_within_three_standard_errors(self):
        target = dist(0.5, 0.25, 0.25)
        rng = SplitMix64(2024)
        n = 100_000
        counts = [0, 0, 0]
        for _ in range(n):
            counts[sample_token(target, rng)[0]] += 1
        for count, p in zip(counts, (0.5, 0.25, 0.25)):
            se = math.sqrt(p * (1 - p) / n)
            assert abs(count / n - p) < 3 * se


class TestBranchFunction:
    def test_high_entropy_fans_out_without_randomness(self):
        rng = FixedRng([])
        decision = branch_function(uniform(16), config(tau=2.5, k=3), rng)
        assert decision.branched and decision.tokens == (0, 1, 2)
        assert decision.entropy == pytest.approx(math.log(16))
        assert rng.draws == 0

    def test_low_entropy_samples_one_token(self):
        rng = FixedRng([0.9])
        decision = branch_function(one_hot(8, 5), config(tau=2.5), rng)
        assert not decision.branched and decision.tokens == (5,)
        assert rng.draws == 1

    def test_infinite_tau_never_branches(self):
        rng = FixedRng([0.1])
        decision = branch_function(uniform(64), config(tau=math.inf), rng)
        assert not decision.branched and len(decision.tokens) == 1
        assert rng.draws == 1

    def test_zero_probability_tokens_excluded_from_fanout(self):
        decision = branch_function(dist(0.5, 0.0, 0.5, 0.0), config(tau=0.0, k=4), FixedRng([]))
        assert decision.branched and decision.tokens == (0, 2)

    def test_degenerate_support_reported_as_non_branching(self):
        decision = branch_function(one_hot(4, 1), config(tau=0.0, k=3), FixedRng([]))
        assert not decision.branched and decision.tokens == (1,)

    def test_k_one_takes_argmax_deterministically(self):
        decision = branch_function(dist(0.2, 0.5, 0.3), config(tau=0.0, k=1), FixedRng([]))
        assert not decision.branched and decision.tokens == (1,)

    @given(prob_vectors, st.floats(min_value=0.05, max_value=3.0))
    @settings(max_examples=60)
    def test_rng_budget(self, d, tau):
        rng = FixedRng([0.5])
        decision = branch_function(d, config(tau=tau, k=2), rng)
        if decision.branched:
            assert rng.draws == 0
        elif decision.entropy < tau:
            assert rng.draws == 1

    @given(prob_vectors)
    @settings(max_examples=60)
    def test_entropy_always_populated_and_thresholded(self, d):
        tau = 0.7
        decision = branch_function(d, config(tau=tau, k=3), FixedRng([0.3]))
        assert decision.entropy == pytest.approx(entropy(d))
        if decision.branched:
            assert decision.entropy >= tau
