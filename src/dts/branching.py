"""Per-position decoding math: softmax, entropy, top-K, sampling,
and the entropy-gated branch decision.

All logarithms are natural. The branch decision is the adaptive rule at the
heart of the engine: fan out into the top-K most probable tokens when the
next-token entropy reaches the threshold, otherwise sample a single token.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DtsConfig, InvalidInputError, TokenDistribution, TokenId


@dataclass(frozen=True)
class BranchDecision:
    """Tokens chosen for one branch at one position.

    ``logprobs`` holds ln P(token), aligned with ``tokens``.
    """

    entropy: float
    tokens: tuple[TokenId, ...]
    logprobs: tuple[float, ...]

    @property
    def branched(self) -> bool:
        """True only when the decision actually fans out (two or more tokens)."""
        return len(self.tokens) > 1


def softmax(logits) -> TokenDistribution:
    """Numerically stable softmax; a ``-inf`` logit is probability 0."""
    try:
        arr = np.asarray(logits, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"logits must be numbers: {exc}") from None
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidInputError("logits must be a non-empty 1-d vector")
    # NaN and +inf fail the first test, an all -inf vector the second
    if not (np.all(arr < np.inf) and arr.max() > -np.inf):
        raise InvalidInputError("logits must be finite or -inf, and not all -inf")
    weights = np.exp(arr - arr.max())
    return TokenDistribution(weights / weights.sum())


def entropy(dist: TokenDistribution) -> float:
    """Shannon entropy in nats, with 0 * log 0 taken as 0."""
    p = dist.probs[dist.probs > 0.0]
    h = float(-(p * np.log(p)).sum())
    # guard against -0.0 and tiny negative rounding on near-one-hot inputs
    return max(h, 0.0)


def top_k_tokens(dist: TokenDistribution, k: int) -> list[tuple[TokenId, float]]:
    """The ``k`` most probable tokens, highest probability first.

    Ties at equal probability are broken toward the lower token id, which
    makes the selection deterministic across runs and implementations.
    """
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    if k > dist.vocab_size:
        raise InvalidInputError(f"k={k} exceeds vocabulary size {dist.vocab_size}")
    # stable argsort on -p keeps ascending token id among equal probabilities
    order = np.argsort(-dist.probs, kind="stable")[:k]
    out = []
    for i in order:
        p = float(dist.probs[i])
        out.append((int(i), math.log(p) if p > 0.0 else float("-inf")))
    return out


def sample_token(dist: TokenDistribution, rng) -> tuple[TokenId, float]:
    """Draw one token by inverse CDF over ascending token ids.

    Consumes exactly one uniform draw. The chosen token is the smallest id
    whose cumulative probability strictly exceeds the draw, so tokens with
    zero probability are never returned.
    """
    u = rng.uniform()
    cum = 0.0
    last_positive = -1
    for i, p in enumerate(dist.probs):
        p = float(p)
        if p <= 0.0:
            continue
        last_positive = i
        cum += p
        if cum > u:
            return i, math.log(p)
    # cumulative rounding left cum <= u; fall back to the last real token
    return last_positive, math.log(float(dist.probs[last_positive]))


def branch_function(dist: TokenDistribution, config: DtsConfig, rng) -> BranchDecision:
    """Decide how one branch extends at the current position.

    Entropy at or above ``config.tau``: deterministically select the top-K
    positive-probability tokens, consuming no randomness. Below the
    threshold: sample a single token, consuming exactly one uniform draw.
    A high-entropy decision that selects fewer than two tokens (K = 1, or a
    support smaller than K) is reported as non-branching since nothing
    forked.
    """
    h = entropy(dist)
    if h >= config.tau:
        ranked = top_k_tokens(dist, min(config.k, dist.vocab_size))
        selected = [(t, lp) for t, lp in ranked if lp > float("-inf")]
    else:
        selected = [sample_token(dist, rng)]
    tokens, logprobs = zip(*selected)
    return BranchDecision(entropy=h, tokens=tokens, logprobs=logprobs)
