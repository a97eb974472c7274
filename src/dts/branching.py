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

# rows at least this long are sampled by cumsum + searchsorted, shorter ones by a loop
_CUMSUM_MIN_VOCAB = 48
# top-K by K argmax passes up to this K, by a stable sort above it
_ARGMAX_MAX_K = 8


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
    """Shannon entropy in nats, with 0 * log 0 taken as 0.

    Computed once per row object: the value is kept on ``dist``, whose
    probabilities are frozen, so a provider that returns the same row again
    gets it back without numpy work. Two threads may compute it at once; both
    store the same value.
    """
    memo = dist.__dict__
    h = memo.get("_entropy")
    if h is None:
        p = dist.probs[dist.probs > 0.0]
        # max clears tiny negative sums on near-one-hot rows; a one-hot row's
        # -0.0 is kept (max returns its first argument on a tie), and --trace prints it
        h = memo["_entropy"] = max(float(-(p * np.log(p)).sum()), 0.0)
    return h


def top_k_tokens(dist: TokenDistribution, k: int) -> list[tuple[TokenId, float]]:
    """The ``k`` most probable tokens, highest probability first.

    Ties at equal probability are broken toward the lower token id, which
    makes the selection deterministic across runs and implementations.
    Up to ``_ARGMAX_MAX_K`` tokens are taken by that many ``argmax`` passes,
    each O(V); a larger ``k`` uses a stable sort. On a 2-core AMD EPYC VM
    the passes lose to the sort at V=64 from K of about 8 to 12, and at
    V=50257 take 18 us for K=3 where the sort takes 3.6 ms.

    Computed once per row object and ``k``: the ``k`` pairs are kept on
    ``dist``, as :func:`entropy` keeps its value, and each call returns a new
    list of them, so a caller that changes its list leaves the kept pairs as
    they are.
    """
    memo = dist.__dict__.setdefault("_top_k", {})
    kept = memo.get(k)
    if kept is not None:
        return list(kept)
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    if k > dist.vocab_size:
        raise InvalidInputError(f"k={k} exceeds vocabulary size {dist.vocab_size}")
    probs = dist.probs
    if k > _ARGMAX_MAX_K:
        # stable argsort on -p keeps ascending token id among equal probabilities
        picks = np.argsort(-probs, kind="stable")[:k].tolist()
    else:
        # argmax returns the first maximum, so ties go to the lower id; a pick
        # is masked below every probability, zero included
        work = probs.copy()
        picks = []
        for _ in range(k):
            i = int(work.argmax())
            work[i] = -1.0
            picks.append(i)
    out = []
    for i in picks:
        p = float(probs[i])
        out.append((i, math.log(p) if p > 0.0 else float("-inf")))
    memo[k] = tuple(out)
    return out


def sample_token(dist: TokenDistribution, rng) -> tuple[TokenId, float]:
    """Draw one token by inverse CDF over ascending token ids.

    Consumes exactly one uniform draw. The chosen token is the smallest id
    whose cumulative probability strictly exceeds the draw, so tokens with
    zero probability are never returned. A row of ``_CUMSUM_MIN_VOCAB`` ids
    or more is searched with ``cumsum`` and ``searchsorted``, a shorter one
    by a Python loop. On a 2-core AMD EPYC VM the two cross near V=48: at
    V=16 the loop takes 0.3 us and the search 1.2 us, at V=50257 the loop
    1.3 ms and the search 0.15 ms. Both add in id order, and adding a zero
    is exact, so both return the same token.
    """
    u = rng.uniform()
    probs = dist.probs
    if probs.size >= _CUMSUM_MIN_VOCAB:
        i = int(probs.cumsum().searchsorted(u, "right"))
        if i == probs.size:
            # cumulative rounding left the total <= u; fall back to the last real token
            i = int(np.flatnonzero(probs)[-1])
        return i, math.log(float(probs[i]))
    cum = 0.0
    last_positive = -1
    for i, p in enumerate(probs):
        p = float(p)
        if p <= 0.0:
            continue
        last_positive = i
        cum += p
        if cum > u:
            return i, math.log(p)
    # cumulative rounding left cum <= u; fall back to the last real token
    return last_positive, math.log(float(probs[last_positive]))


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
        ranked = top_k_tokens(dist, config.k)
        selected = [(t, lp) for t, lp in ranked if lp > float("-inf")]
    else:
        selected = [sample_token(dist, rng)]
    tokens, logprobs = zip(*selected)
    return BranchDecision(entropy=h, tokens=tokens, logprobs=logprobs)
