"""The live engine against the frozen copy in ``reference_engine``: equal JSON bytes.

Any change to the engine, the decoding math or the provider contract must
leave every run's output, traces and counters byte-identical.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_engine as reference
from dts import (
    DtsConfig, PfsaModel, ScriptedModel, TokenDistribution, run_dts, run_standard, sample_token, top_k_tokens,
    train_ngram,
)
from dts.branching import _ARGMAX_MAX_K, _CUMSUM_MIN_VOCAB

from support import FixedRng, random_ngram, random_pfsa

LIVE = {"dts": run_dts, "standard": run_standard}
FROZEN = {"dts": reference.run_dts, "standard": reference.run_standard}


def outcome(run, provider, prompt, config):
    """The run's JSON bytes, or the type and message of what it raised."""
    try:
        return json.dumps(run(provider, prompt, config).to_json_dict()).encode("utf-8")
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_same(method, provider, prompt, config):
    live = outcome(LIVE[method], provider, prompt, config)
    assert isinstance(live, bytes), live
    assert live == outcome(FROZEN[method], provider, prompt, config)


@st.composite
def scripted_models(draw):
    """Scripted models over a few logit levels, so rows hold ties and zeros."""
    vocab = draw(st.integers(min_value=2, max_value=6))
    levels = st.sampled_from([0.0, 0.0, 1.0, 2.5, -math.inf])

    def logits():
        row = draw(st.lists(levels, min_size=vocab, max_size=vocab))
        row[draw(st.integers(0, vocab - 1))] = 0.0
        return row

    tokens = st.integers(0, vocab - 1)
    rules = [(draw(st.lists(tokens, min_size=1, max_size=2)), logits()) for _ in range(draw(st.integers(0, 5)))]
    return ScriptedModel(rules, logits(), end_tokens=[vocab - 1])


models = st.one_of(
    st.integers(0, 10_000).map(random_pfsa),
    st.integers(0, 10_000).map(random_ngram),
    scripted_models(),
)


@given(
    model=models,
    method=st.sampled_from(["dts", "standard"]),
    tau=st.one_of(st.floats(min_value=0.0, max_value=2.0), st.just(math.inf)),
    k_frac=st.floats(min_value=0.0, max_value=1.0),
    max_branches=st.integers(1, 32),
    temperature=st.sampled_from([0.3, 0.6, 1.0, 3.0]),
    seed=st.integers(0, 2**64 - 1),
    prompt_len=st.integers(0, 3),
)
@settings(max_examples=300, deadline=None)
def test_engine_matches_frozen_reference(model, method, tau, k_frac, max_branches, temperature, seed, prompt_len):
    config = DtsConfig(
        tau=tau, k=1 + int(k_frac * (model.vocab_size - 1)), temperature=temperature, max_tokens=20,
        end_tokens=model.end_tokens, max_branches=max_branches, seed=seed,
    )
    prompt = [t % model.vocab_size for t in range(prompt_len)]
    assert_same(method, model, prompt, config)


@st.composite
def rows(draw):
    """Rows on both sides of the sampler's size bound: one-hot, a few levels with ties and zeros, or any floats."""
    vocab = draw(st.one_of(st.integers(1, _CUMSUM_MIN_VOCAB + 8), st.integers(_CUMSUM_MIN_VOCAB - 8, 300)))
    kind = draw(st.sampled_from(["one-hot", "levels", "floats"]))
    if kind == "one-hot":
        weights = np.zeros(vocab)
    else:
        values = st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.5, 1e-3]) if kind == "levels" else st.floats(0.0, 1.0)
        weights = np.array(draw(st.lists(values, min_size=vocab, max_size=vocab)))
    weights[draw(st.integers(0, vocab - 1))] = 1.0
    return TokenDistribution(weights / weights.sum())


@given(dist=rows(), data=st.data())
@settings(max_examples=400, deadline=None)
def test_top_k_matches_frozen_reference(dist, data):
    vocab = dist.vocab_size
    k = data.draw(st.one_of(st.integers(1, min(vocab, _ARGMAX_MAX_K + 2)), st.integers(1, vocab)))
    assert top_k_tokens(dist, k) == reference.top_k_tokens(dist, k)


@given(dist=rows(), data=st.data())
@settings(max_examples=400, deadline=None)
def test_sample_token_matches_frozen_reference(dist, data):
    # draws exactly at a cumulative sum, and one ulp either side, test the strict "exceeds"
    cum = np.cumsum(dist.probs)
    edge = float(cum[data.draw(st.integers(0, cum.size - 1))])
    u = data.draw(st.one_of(
        st.floats(0.0, 1.0, exclude_max=True),
        st.sampled_from([edge, math.nextafter(edge, 0.0), math.nextafter(edge, 2.0)]),
    ))
    u = min(u, 1.0 - 2.0**-53)
    assert sample_token(dist, FixedRng([u])) == reference.sample_token(dist, FixedRng([u]))


@pytest.mark.parametrize("vocab", [8, _CUMSUM_MIN_VOCAB, 64])
def test_sample_token_rounding_falls_back_to_last_positive_id(vocab):
    # the row sums to 1 - 5e-7, inside PROB_SUM_TOL, and the draw lies above that total
    weights = np.zeros(vocab)
    weights[:3] = [0.5, 0.3, 0.2 - 5e-7]
    dist = TokenDistribution(weights)
    u = 1.0 - 2.0**-53
    assert float(dist.probs.sum()) < u
    assert sample_token(dist, FixedRng([u])) == (2, math.log(0.2 - 5e-7))
    assert sample_token(dist, FixedRng([u])) == reference.sample_token(dist, FixedRng([u]))


def long_tree_pfsa(vocab=64, states=8) -> PfsaModel:
    """Near-flat states and no end emission, so every run reaches its length cap."""
    rs = np.random.default_rng(5000)
    end = vocab - 1
    emissions = {s: np.append(rs.dirichlet(np.ones(vocab - 1)), 0.0).tolist() for s in range(states)}
    transitions = {s: {t: int(rs.integers(states)) for t in range(end)} for s in range(states)}
    return PfsaModel(0, emissions, transitions, [end])


def test_long_tree_run_matches_frozen_reference():
    model = long_tree_pfsa()
    config = DtsConfig(tau=3.78, k=2, temperature=1.0, max_tokens=5000, end_tokens=model.end_tokens,
                       max_branches=4, seed=11)
    result = run_dts(model, [], config)
    assert (result.steps_executed, result.peak_frontier_size) == (5000, 4)
    assert result.total_branch_events > 0
    assert json.dumps(result.to_json_dict()) == json.dumps(reference.run_dts(model, [], config).to_json_dict())


@pytest.mark.parametrize(
    "vocab,temperature",
    [
        pytest.param(50257, 1.0, id="1.0"),
        pytest.param(50257, 0.6, id="0.6"),
        # the vocabulary of the paper's DeepSeek-R1-Distill-Qwen models
        pytest.param(152064, 1.0, id="152064-1.0"),
        pytest.param(152064, 0.6, id="152064-0.6"),
    ],
)
def test_wide_vocabulary_run_matches_frozen_reference(vocab, temperature):
    top = 200
    rs = np.random.default_rng(50257)
    # frequent ids spread over the range; half of them are peaked contexts that
    # mostly lead to one successor, the other half flat ones that fork
    frequent = rs.choice(vocab - 1, size=top, replace=False).tolist()
    successor = dict(zip(frequent, rs.permutation(frequent).tolist()))
    corpus = []
    for _ in range(40):
        seq = [frequent[0]]
        for _ in range(300):
            peaked = frequent.index(seq[-1]) % 2 and rs.random() < 0.7
            seq.append(successor[seq[-1]] if peaked else frequent[int(rs.integers(top))])
        corpus.append(seq)
    model = train_ngram(corpus, 2, 1e-5, vocab_size=vocab, end_tokens=[vocab - 1])
    config = DtsConfig(tau=3.0, k=3, temperature=temperature, max_tokens=16, end_tokens=model.end_tokens,
                       max_branches=8, seed=3)
    prompt = [frequent[0]]
    result = run_dts(model, prompt, config)
    # the budget is in play: one more three-way fork would overrun it
    assert result.peak_frontier_size >= 7
    assert_same("dts", model, prompt, config)
