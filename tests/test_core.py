import math

import numpy as np
import pytest

from dts import (
    BranchState,
    DtsConfig,
    InvalidInputError,
    RunResult,
    StepTrace,
    TokenDistribution,
)
from dts.branching import softmax
from dts.core import json_numbers, token_ids

from support import NOT_ID_SEQUENCE_NAMES, NOT_ID_SEQUENCES


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


@pytest.mark.parametrize("values", NOT_ID_SEQUENCES, ids=NOT_ID_SEQUENCE_NAMES)
def test_token_ids_refuses_what_is_not_a_sequence_of_ids(values):
    with pytest.raises(InvalidInputError, match="sequence of integers"):
        token_ids(values, 3)
    with pytest.raises(InvalidInputError, match="sequence of integers"):
        DtsConfig(tau=1.0, k=2, temperature=1.0, max_tokens=8, end_tokens=values)


def test_token_ids_names_a_negative_id_without_a_vocabulary():
    with pytest.raises(InvalidInputError, match="token id -1 is negative"):
        token_ids([0, -1])


@pytest.mark.parametrize("bad", [["x", 1.0], [{}, 1.0], [[0.5], [0.5, 0.0]]], ids=["string", "dict", "ragged"])
def test_non_numeric_entries_are_invalid_input(bad):
    with pytest.raises(InvalidInputError, match="must be numbers"):
        TokenDistribution(bad)
    with pytest.raises(InvalidInputError, match="must be numbers"):
        softmax(bad)


def test_json_numbers_takes_ints_and_floats_only():
    values = [1, 0.5, -2, math.inf]
    assert json_numbers(values) is values
    for bad in (["1", 0.0], [True, 0.0], [None], [np.float64(0.5)], (0.5, 0.5), 0.5, "0.5"):
        with pytest.raises(InvalidInputError, match="must be numbers"):
            json_numbers(bad)


def test_distribution_rejects_entries_above_one():
    with pytest.raises(InvalidInputError):
        TokenDistribution(np.array([1.0 + 1e-7, 0.0]))


