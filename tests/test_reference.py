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
from dts import DtsConfig, PfsaModel, ScriptedModel, run_dts, run_standard, train_ngram

from support import random_ngram, random_pfsa

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


@pytest.mark.parametrize("temperature", [1.0, 0.6])
def test_wide_vocabulary_run_matches_frozen_reference(temperature):
    vocab, top = 50257, 200
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
