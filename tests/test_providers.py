import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dts import (
    DtsConfig,
    InvalidInputError,
    NGramModel,
    PfsaModel,
    ProviderError,
    ScriptedModel,
    run_dts,
    train_ngram,
)

from support import one_hot_logits, random_ngram, random_pfsa, row


class TestScripted:
    def test_default_uniform(self):
        model = ScriptedModel([], [0.0, 0.0, 0.0, 0.0], end_tokens=[3])
        for tokens in [(), (1,), (2, 2, 0)]:
            dist = model.next_distributions((), [tokens])[0]
            assert np.allclose(dist.probs, 0.25)

    def test_first_matching_rule_wins(self):
        model = ScriptedModel(
            rules=[([1], one_hot_logits(4, 0)), ([2, 1], one_hot_logits(4, 3))],
            default_logits=[0.0] * 4,
            end_tokens=[3],
        )
        # suffix [1] is listed first, so it shadows the longer rule
        dist = row(model, (), (2, 1))
        assert dist.probs[0] > 0.99

    def test_suffix_matches_prompt_plus_tokens(self):
        model = ScriptedModel(
            rules=[([7, 1], one_hot_logits(8, 2))], default_logits=[0.0] * 8, end_tokens=[6]
        )
        assert row(model, (7,), (1,)).probs[2] > 0.99
        assert row(model, (), (1,)).probs[2] == pytest.approx(0.125)

    def test_file_roundtrip(self, tmp_path):
        payload = [
            {"suffix": [1], "logits": [5.0, 0.0, 0.0]},
            {"default": [0.0, 0.0, 0.0]},
            {"end_tokens": [2]},
            {"vocab": ["a", "b", "<e>"]},
        ]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        model = ScriptedModel.from_file(str(path))
        assert model.vocab_size == 3 and model.end_tokens == frozenset({2})
        assert model.vocab == ("a", "b", "<e>")
        assert row(model, (), (1,)).probs[0] > 0.9

    def test_rule_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            ScriptedModel([([0], [1.0, 2.0, 3.0])], [0.0, 0.0], end_tokens=[1])


class TestNGram:
    def test_spec_bigram_probability(self):
        # corpus "a b a b a b": P(b|a) = (3+1)/(3+1*3) = 2/3 with alpha=1, V=3
        model = NGramModel.from_text_corpus(["a b a b a b"], n=2, alpha=1.0)
        assert model.vocab == ("a", "b", "<e>")
        dist = row(model, (), (0,))
        assert dist.probs[1] == pytest.approx(2 / 3)
        assert dist.probs[0] == pytest.approx(1 / 6)
        assert dist.probs[2] == pytest.approx(1 / 6)

    def test_hand_counted_windows(self):
        model = train_ngram([[1, 2, 1, 2]], n=2, alpha=0.5)
        assert model.counts[(1,)][2] == 2
        assert model.counts[(2,)][1] == 1
        # inferred vocab: max id 2 plus a reserved end token
        assert model.vocab_size == 4 and model.end_tokens == frozenset({3})

    def test_unigram_ignores_context(self):
        model = train_ngram([[0, 1, 1]], n=1, alpha=1.0)
        a = row(model, (), ())
        b = row(model, (5,), (1, 0)) if model.vocab_size > 5 else row(model, (), (1, 0))
        assert np.array_equal(a.probs, b.probs)

    def test_huge_alpha_approaches_uniform(self):
        model = train_ngram([[0, 1, 2, 0, 1]], n=2, alpha=1e8)
        dist = row(model, (), (0,))
        assert np.allclose(dist.probs, 1.0 / model.vocab_size, atol=1e-3)

    def test_unseen_context_is_uniform(self):
        model = train_ngram([[0, 1]], n=3, alpha=0.7)
        dist = row(model, (), (1, 0))
        assert np.allclose(dist.probs, 1.0 / model.vocab_size, atol=1e-12)

    def test_unseen_contexts_share_one_floor_row(self):
        model = train_ngram([[0, 1, 2, 0]], n=3, alpha=0.7, vocab_size=50)
        floor = row(model, (), (1, 0))
        assert row(model, (), (7, 9)) is floor
        # the smoothing arithmetic of an unseen context, bit for bit
        assert np.array_equal(floor.probs, np.full(50, 0.7) / (0 + 0.7 * 50))
        for a in range(50):
            for b in range(50):
                row(model, (a,), (b,))
        assert set(model._cache) == {(0, 1), (1, 2)}

    @pytest.mark.parametrize("corpus,vocab_size,message", [
        ([[0, -1, 1]], None, "negative"),
        ([[0, 1.7, 1]], None, "not an integer"),
        ([[0, 3]], 3, "outside vocabulary"),
    ], ids=["negative", "float", "beyond-vocab"])
    def test_corpus_ids_checked(self, corpus, vocab_size, message):
        # a -1 would otherwise be counted as the last id, the end token
        with pytest.raises(InvalidInputError, match=message):
            train_ngram(corpus, 2, 1.0, vocab_size=vocab_size)

    @pytest.mark.parametrize("counts,message", [
        ({(0,): {-1: 5}}, "is negative"),
        ({(0,): {True: 5}}, "not an integer"),
        ({(0,): {4: 5}}, "outside vocabulary"),
        ({(0,): {1: 0}}, "positive integers"),
        ({(0,): {1: 2.5}}, "positive integers"),
        ({(0,): {1: True}}, "positive integers"),
    ], ids=["negative-id", "bool-id", "beyond-vocab", "zero-count", "float-count", "bool-count"])
    def test_counts_checked_when_their_row_is_built(self, counts, message):
        # a -1 would move the mass to the last id, and a True key would add to every id
        model = NGramModel(2, 1.0, counts, 4, [3])
        with pytest.raises(InvalidInputError, match=message):
            row(model, (), (0,))

    def test_bad_counts_end_a_run_with_provider_error(self):
        model = NGramModel(2, 1.0, {(0,): {-1: 5}}, 4, [3])
        config = DtsConfig(tau=math.inf, k=1, temperature=1.0, max_tokens=4, end_tokens=frozenset({3}))
        with pytest.raises(ProviderError) as info:
            run_dts(model, [0], config)
        assert isinstance(info.value.__cause__, InvalidInputError)

    @pytest.mark.parametrize("n,alpha", [(0, 1.0), (2, 0.0)])
    def test_order_and_alpha_checked_before_counting(self, n, alpha):
        with pytest.raises(InvalidInputError):
            train_ngram([[0, 1]], n, alpha)

    def test_empty_corpus_rejected(self):
        with pytest.raises(InvalidInputError):
            train_ngram([], n=2, alpha=1.0)
        with pytest.raises(InvalidInputError):
            NGramModel.from_text_corpus(["   "], n=2, alpha=1.0)

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=25)
    def test_rows_normalized(self, seed):
        model = random_ngram(seed)
        for ctx in [(), (0,), (1, 2), (0, 0, 1)]:
            total = float(row(model, (), ctx).probs.sum())
            assert abs(total - 1.0) < 1e-9

    def test_purity_bitwise(self):
        model = random_ngram(17)
        first = row(model, (1,), (0, 2))
        second = row(model, (1,), (0, 2))
        assert np.array_equal(first.probs, second.probs)


class TestPfsa:
    def two_state(self):
        # state 1 emits the end token with probability 0.1
        return PfsaModel(
            initial_state=0,
            emissions={0: [1.0, 0.0, 0.0], 1: [0.5, 0.4, 0.1]},
            transitions={0: {0: 1}, 1: {0: 1, 1: 0}},
            end_tokens=[2],
        )

    def test_emission_read_back(self):
        model = self.two_state()
        dist = model.next_distributions((), [(0,)])[0]
        assert dist.probs[2] == pytest.approx(0.1)

    def test_prompt_is_ignored(self):
        model = self.two_state()
        assert row(model, (1, 1), (0,)) == row(model, (), (0,))

    def test_sequence_probability_is_running_product(self):
        model = self.two_state()
        # 0 (p=1.0) -> state1, 0 (p=.5) -> state1, 2 (p=.1) ends
        assert model.sequence_probability((0, 0, 2)) == pytest.approx(0.05)

    def test_unnormalized_emissions_rejected(self):
        with pytest.raises(InvalidInputError):
            PfsaModel(0, {0: [0.5, 0.6]}, {0: {0: 0}}, end_tokens=[1])

    def test_emission_above_one_rejected_when_built(self):
        # the row sums to 1 within tolerance, but a log-probability of the
        # first token would be positive
        with pytest.raises(InvalidInputError, match=r"\[0, 1\]"):
            PfsaModel("a", {"a": [1 + 5e-10, 0, 0], "b": [0, 0, 1]}, {"a": {0: "b"}}, [2])

    def test_missing_transition_rejected(self):
        with pytest.raises(InvalidInputError):
            PfsaModel(0, {0: [0.5, 0.5]}, {0: {}}, end_tokens=[1])

    def test_transition_to_unknown_state_rejected(self):
        with pytest.raises(InvalidInputError):
            PfsaModel(0, {0: [0.5, 0.5]}, {0: {0: 9}}, end_tokens=[1])

    def test_cold_long_prefix_is_walked_without_recursion(self):
        model = PfsaModel(0, {0: [0.5, 0.5]}, {0: {0: 0}}, end_tokens=[1])
        tokens = (0,) * 5000
        tracemalloc.start()
        try:
            assert row(model, (), tokens) == model.emissions[0]
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a cache of every prefix would hold 5000 tuples, about 100 MB
        assert retained < 2**20

    @pytest.mark.parametrize("seed", range(6))
    def test_any_query_order_reads_the_walked_state(self, seed):
        # lockstep extensions, repeats, jumps back and unrelated sequences all
        # read the emissions of the state that a walk from the start reaches
        model = random_pfsa(seed, max_states=5)
        rnd = random.Random(seed)
        walked = [((), model.initial_state)]
        for _ in range(8):
            tokens, state = (), model.initial_state
            for _ in range(12):
                token = rnd.choice(sorted(model.transitions[state]))
                tokens, state = tokens + (token,), model.transitions[state][token]
                walked.append((tokens, state))
        batches = [[pair] for pair in walked]
        batches += [rnd.sample(walked, rnd.randint(1, 6)) for _ in range(40)]
        for batch in batches:
            got = model.next_distributions((), [tokens for tokens, _ in batch])
            assert got == [model.emissions[state] for _, state in batch]

    def test_file_roundtrip(self, tmp_path):
        payload = {
            "initial_state": "s0",
            "end_tokens": [1],
            "vocab": ["a", "<e>"],
            "states": {"s0": {"emissions": [0.5, 0.5], "transitions": {"0": "s0"}}},
        }
        path = tmp_path / "pfsa.json"
        path.write_text(json.dumps(payload))
        model = PfsaModel.from_file(str(path))
        assert model.vocab_size == 2
        assert model.sequence_probability((0, 1)) == pytest.approx(0.25)


def _ngram(end_tokens, vocab=None):
    return NGramModel(2, 1.0, {}, 3, end_tokens, vocab=vocab)


def _pfsa(end_tokens, vocab=None):
    # a transition on every token, so that only the end-token check can refuse
    return PfsaModel(0, {0: [0.5, 0.25, 0.25]}, {0: {0: 0, 1: 0, 2: 0}}, end_tokens, vocab=vocab)


def _scripted(end_tokens, vocab=None):
    return ScriptedModel([], [0.0, 0.0, 0.0], end_tokens=end_tokens, vocab=vocab)


@pytest.mark.parametrize("build", [_ngram, _pfsa, _scripted], ids=["ngram", "pfsa", "scripted"])
class TestOneConstructor:
    """Every provider sets its vocabulary through DistributionProvider.__init__."""

    @pytest.mark.parametrize("end_tokens", [["1"], [2.9], [True], [-1], [3], []],
                             ids=["string", "float", "bool", "negative", "vocab-size", "empty"])
    def test_bad_end_tokens_rejected(self, build, end_tokens):
        with pytest.raises(InvalidInputError, match="token id|end token"):
            build(end_tokens)

    def test_numpy_end_token_stored_as_int(self, build):
        model = build([np.int64(2)])
        assert model.end_tokens == frozenset({2})
        assert all(type(t) is int for t in model.end_tokens)

    @pytest.mark.parametrize("vocab", [["a", "b"], ["a", "b", 3], "abc", {"a": 0, "b": 1, "c": 2}],
                             ids=["wrong-length", "non-string", "string", "dict"])
    def test_bad_vocab_rejected(self, build, vocab):
        with pytest.raises(InvalidInputError, match="vocab"):
            build([2], vocab)

    def test_words_encode_from_construction(self, build):
        model = build([2], ["a", "b", "<e>"])
        assert model.vocab == ("a", "b", "<e>")
        assert model.encode("b a <e>") == [1, 0, 2]


@pytest.mark.parametrize("vocab_size", ["3", 3.0, True, 1], ids=["string", "float", "bool", "one"])
def test_vocab_size_must_be_an_integer_of_at_least_two(vocab_size):
    with pytest.raises(InvalidInputError, match="vocab_size"):
        NGramModel(2, 1.0, {}, vocab_size, [0])


class TestProviderContract:
    @staticmethod
    def _valid_prefixes(model, depth=3):
        """Prefixes that follow the model's own support (PFSA-safe)."""
        prefixes = [()]
        tokens = ()
        for _ in range(depth):
            dist = row(model, (), tokens)
            candidates = [
                t for t in range(model.vocab_size)
                if float(dist.probs[t]) > 0.0 and t not in model.end_tokens
            ]
            if not candidates:
                break
            tokens = tokens + (candidates[0],)
            prefixes.append(tokens)
        return prefixes

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_batched_equals_singletons(self, seed):
        for model in (random_ngram(seed), random_pfsa(seed)):
            sequences = self._valid_prefixes(model)
            batched = model.next_distributions((), sequences)
            singles = [model.next_distributions((), [s])[0] for s in sequences]
            for a, b in zip(batched, singles):
                assert np.array_equal(a.probs, b.probs)

    def test_encode_decode_with_vocab(self):
        model = NGramModel.from_text_corpus(["x y x"], n=1, alpha=1.0)
        assert model.encode("x y <e>") == [0, 1, 2]
        assert model.decode([0, 1, 2]) == "x y <e>"
        # unknown words drop, integer literals pass through
        assert model.encode("x unknown 1") == [0, 1]

    def test_encode_decode_without_vocab(self):
        model = random_pfsa(2)
        ids = list(range(model.vocab_size))
        assert model.encode(model.decode(ids)) == ids
