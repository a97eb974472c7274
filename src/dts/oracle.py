"""Brute-force enumeration of the decoding tree on small vocabularies.

Ground truth for shortest-path and probability claims. Enumeration treats
every positive-probability token as a child, so it bounds all realizable
outputs regardless of sampling luck. Cost is counted in provider calls and
capped by a work limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import DtsConfig, InvalidInputError, JsonRecord, ResourceLimitError, TokenId, token_ids
from .engine import distributions_at, run_dts

DEFAULT_WORK_LIMIT = 10_000_000


@dataclass(frozen=True)
class EnumeratedPath(JsonRecord):
    """A complete root-to-leaf sequence and its probability: the float product
    of its step probabilities, which underflows to 0.0 on long paths."""

    tokens: tuple[TokenId, ...]
    probability: float
    length: int


def enumerate_tree(
    provider,
    prompt: Sequence[TokenId],
    max_len: int,
    prob_floor: float = 0.0,
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> list[EnumeratedPath]:
    """Depth-first enumeration of every terminating sequence up to ``max_len``.

    A child is explored iff its step probability is positive and the path
    probability stays at or above ``prob_floor``. Each expanded node costs
    one provider call against the work limit.
    """
    if max_len < 1:
        raise InvalidInputError("max_len must be >= 1")
    if not prob_floor >= 0.0:
        raise InvalidInputError("prob_floor must be >= 0")
    prompt = token_ids(prompt, provider.vocab_size)
    end_tokens = provider.end_tokens
    paths: list[EnumeratedPath] = []
    calls = 0
    # (tokens, probability, ends): a prefix to expand, or a complete path
    # when ends is set. Children are pushed in reverse token order, so they
    # pop in the depth-first, ascending-token order of a recursive walk.
    stack: list[tuple[tuple[TokenId, ...], float, bool]] = [((), 1.0, False)]
    while stack:
        tokens, prob, ends = stack.pop()
        if ends:
            paths.append(EnumeratedPath(tokens=tokens, probability=prob, length=len(tokens)))
            continue
        calls += 1
        if calls > work_limit:
            raise ResourceLimitError(
                f"enumeration exceeded the work limit of {work_limit} provider calls"
            )
        dist = distributions_at(provider, prompt, [tokens], len(tokens), 1.0)[0]
        children = []
        for token, p in enumerate(dist.probs.tolist()):
            if p <= 0.0:
                continue
            path_prob = prob * p
            if path_prob < prob_floor:
                continue
            child = tokens + (token,)
            if token in end_tokens or len(child) < max_len:
                children.append((child, path_prob, token in end_tokens))
        stack.extend(reversed(children))
    return paths


def shortest_terminating(paths: Sequence[EnumeratedPath]) -> tuple[int, list[EnumeratedPath]]:
    """Minimum terminating length and every path attaining it.

    Paths at the minimum are sorted by probability descending, then by
    lexicographic token order.
    """
    if not paths:
        raise InvalidInputError("no terminating paths to rank")
    min_length = min(p.length for p in paths)
    at_min = sorted(
        (p for p in paths if p.length == min_length),
        key=lambda p: (-p.probability, p.tokens),
    )
    return min_length, at_min


def verify_dts_against_oracle(provider, prompt: Sequence[TokenId], config: DtsConfig) -> bool:
    """True iff the engine's output length equals the enumerated minimum.

    With tau = 0, K = vocab_size and an unbounded budget the engine performs
    an exhaustive breadth-first search, so equality must hold; with a
    reduced K the comparison exposes the approximation gap instead.
    """
    paths = enumerate_tree(provider, prompt, config.max_tokens)
    min_length, _ = shortest_terminating(paths)
    result = run_dts(provider, prompt, config)
    return result.terminated and len(result.output.tokens) == min_length
