import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dts import (
    BranchState,
    DtsConfig,
    InvalidInputError,
    RunResult,
    StepTrace,
    TokenDistribution,
)
from dts.branching import softmax
from dts.core import token_ids

token_lists = st.lists(st.integers(min_value=0, max_value=500), max_size=12)
logprobs = st.floats(min_value=-200.0, max_value=0.0, allow_nan=False)


@st.composite
def branch_states(draw):
    return BranchState(
        tokens=tuple(draw(token_lists)),
        cumulative_logprob=draw(logprobs),
        finished=draw(st.booleans()),
        branch_id=draw(st.integers(min_value=0, max_value=100)),
        parent_branch_id=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=100))),
        fork_step=draw(st.one_of(st.none(), st.integers(min_value=0, max_value=100))),
    )


@st.composite
def step_traces(draw):
    branched = draw(st.booleans())
    count = draw(st.integers(min_value=2, max_value=5)) if branched else 1
    tokens = draw(
        st.lists(
            st.integers(min_value=0, max_value=99), min_size=count, max_size=count, unique=True
        )
    )
    return StepTrace(
        step=draw(st.integers(min_value=0, max_value=50)),
        branch_id=draw(st.integers(min_value=0, max_value=50)),
        entropy=draw(st.floats(min_value=0.0, max_value=12.0, allow_nan=False)),
        branched=branched,
        chosen_tokens=tuple(tokens),
    )


def _roundtrip(value, cls):
    return cls.from_json_dict(json.loads(json.dumps(value.to_json_dict())))


@given(branch_states())
def test_branch_state_roundtrip(state):
    assert _roundtrip(state, BranchState) == state


@given(step_traces())
def test_step_trace_roundtrip(trace):
    assert _roundtrip(trace, StepTrace) == trace


@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=30))
def test_distribution_roundtrip(weights):
    arr = np.asarray(weights)
    dist = TokenDistribution(arr / arr.sum())
    assert _roundtrip(dist, TokenDistribution) == dist


@given(
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=64),
)
def test_config_roundtrip(tau, k, max_tokens):
    cfg = DtsConfig(
        tau=tau, k=k, temperature=0.7, max_tokens=max_tokens, end_tokens=frozenset({3, 5}),
        max_branches=16, seed=123,
    )
    assert _roundtrip(cfg, DtsConfig) == cfg


def test_config_infinite_tau_roundtrips():
    cfg = DtsConfig(tau=math.inf, k=3, temperature=1.0, max_tokens=4, end_tokens=frozenset({1}))
    again = _roundtrip(cfg, DtsConfig)
    assert again.tau == math.inf and again == cfg


@given(branch_states())
def test_run_result_roundtrip(output):
    result = RunResult(
        output=output,
        terminated=output.finished,
        steps_executed=len(output.tokens),
        peak_frontier_size=3,
        total_branch_events=2,
        traces=(StepTrace(0, 0, 0.5, False, (4,)),),
    )
    assert _roundtrip(result, RunResult) == result


def test_run_result_traces_optional_in_json():
    result = RunResult(
        output=BranchState((1,), -0.5, True, 0),
        terminated=True,
        steps_executed=1,
        peak_frontier_size=1,
        total_branch_events=0,
        traces=(StepTrace(0, 0, 0.1, False, (1,)),),
    )
    assert "traces" not in result.to_json_dict(include_traces=False)
    assert len(result.to_json_dict()["traces"]) == 1


def test_distribution_validation():
    with pytest.raises(InvalidInputError):
        TokenDistribution(np.array([0.5, 0.6]))
    with pytest.raises(InvalidInputError):
        TokenDistribution(np.array([-0.1, 1.1]))
    with pytest.raises(InvalidInputError):
        TokenDistribution(np.array([np.nan, 1.0]))


def test_distribution_is_frozen():
    dist = TokenDistribution(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        dist.probs[0] = 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tau": -0.1},
        {"k": 0},
        {"temperature": 0.0},
        {"temperature": -1.0},
        {"max_tokens": 0},
        {"max_branches": 0},
        {"seed": -1},
        {"seed": 2**64},
        {"end_tokens": frozenset()},
        {"temperature": math.inf},
    ],
)
def test_config_validation(kwargs):
    base = dict(tau=1.0, k=2, temperature=1.0, max_tokens=8, end_tokens=frozenset({1}))
    base.update(kwargs)
    with pytest.raises(InvalidInputError):
        DtsConfig(**base)


@pytest.mark.parametrize("bad", [2.7, True, "1", None, -1], ids=["float", "bool", "string", "none", "negative"])
def test_config_end_tokens_are_strict(bad):
    # the vocabulary range is the engine's check; the type rule is token_ids'
    with pytest.raises(InvalidInputError):
        DtsConfig(tau=1.0, k=2, temperature=1.0, max_tokens=8, end_tokens={2, bad})
    cfg = DtsConfig(tau=1.0, k=2, temperature=1.0, max_tokens=8, end_tokens={np.int64(2), 99})
    assert cfg.end_tokens == frozenset({2, 99}) and all(type(t) is int for t in cfg.end_tokens)


def test_token_ids_accepts_python_and_numpy_integers():
    assert token_ids([0, np.int64(2), np.uint8(1)], 3) == (0, 2, 1)
    assert all(type(t) is int for t in token_ids(np.arange(3), 3))


@pytest.mark.parametrize("bad", [True, 1.0, 1.5, "1", None, -1, 3, np.int64(3)])
def test_token_ids_rejects_non_integers_and_out_of_range(bad):
    with pytest.raises(InvalidInputError):
        token_ids([0, bad], 3)


def test_token_ids_names_a_negative_id_without_a_vocabulary():
    with pytest.raises(InvalidInputError, match="token id -1 is negative"):
        token_ids([0, -1])


@pytest.mark.parametrize("bad", [["x", 1.0], [{}, 1.0], [[0.5], [0.5, 0.0]]], ids=["string", "dict", "ragged"])
def test_non_numeric_entries_are_invalid_input(bad):
    with pytest.raises(InvalidInputError, match="must be numbers"):
        TokenDistribution(bad)
    with pytest.raises(InvalidInputError, match="must be numbers"):
        softmax(bad)


def test_distribution_rejects_entries_above_one():
    with pytest.raises(InvalidInputError):
        TokenDistribution(np.array([1.0 + 1e-7, 0.0]))


