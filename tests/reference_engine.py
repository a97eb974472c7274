"""A frozen copy of the decoding engine, the oracle for the engine's exact output.

The functions below are copied verbatim from ``dts.engine`` and
``dts.branching`` as they stood before the provider contract became the one
batched method. They import only the ``dts.core`` records and
``SplitMix64``, so a later change to the engine or the decoding math cannot
change them too. This file is never edited: a test that compares the live
engine with it fails the moment the engine's output changes by one byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from dts.core import (
    BranchState,
    DtsConfig,
    InvalidInputError,
    ProviderError,
    RunResult,
    StepTrace,
    TokenDistribution,
    TokenId,
    token_ids,
)
from dts.rng import SplitMix64


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


def expand_frontier(
    branches: Sequence[BranchState],
    decisions: Sequence[BranchDecision],
    step: int,
    end_tokens: frozenset[TokenId],
) -> list[BranchState]:
    """Replace each branch by one child per decided token.

    ``branches`` is the frontier in branch-id order with ids ``0 .. len - 1``.
    The first child of a decision keeps the parent's branch id; later
    children get the fresh ids ``len(branches), len(branches) + 1, ...`` and
    record the parent id and ``step``, the step at which the fork occurred.
    The forks follow the kept children, so the result is in branch-id order
    too. A child whose new token is an end token is marked finished.
    """
    if len(decisions) != len(branches):
        raise InvalidInputError(f"{len(decisions)} decisions for {len(branches)} branches")
    kept: list[BranchState] = []
    forks: list[BranchState] = []
    for branch, decision in zip(branches, decisions):
        for j, (token, logprob) in enumerate(zip(decision.tokens, decision.logprobs)):
            if j == 0:
                children, branch_id = kept, branch.branch_id
                parent_id, fork_step = branch.parent_branch_id, branch.fork_step
            else:
                children, branch_id = forks, len(branches) + len(forks)
                parent_id, fork_step = branch.branch_id, step
            children.append(
                BranchState(
                    tokens=branch.tokens + (token,),
                    cumulative_logprob=branch.cumulative_logprob + logprob,
                    finished=token in end_tokens,
                    branch_id=branch_id,
                    parent_branch_id=parent_id,
                    fork_step=fork_step,
                )
            )
    return kept + forks


def apply_budget(
    branches: Sequence[BranchState],
    decisions: Sequence[BranchDecision],
    max_branches: int,
) -> list[BranchDecision]:
    """Demote branching decisions that would push the frontier over budget.

    The decisions are walked in order of their branch's cumulative
    log-probability, highest first and ties to the lower position, so
    probable paths win fan-out under contention. The walk reserves one child
    for every branch not yet visited; a branching decision survives only if
    its full fan-out plus those reservations fits in ``max_branches``. A
    demoted decision keeps its single most probable token.
    """
    if len(decisions) != len(branches):
        raise InvalidInputError(f"{len(decisions)} decisions for {len(branches)} branches")
    # a stable sort leaves tied branches in position order
    order = sorted(range(len(branches)), key=lambda i: -branches[i].cumulative_logprob)
    result = list(decisions)
    committed = 0
    for walked, pos in enumerate(order):
        decision = result[pos]
        remaining = len(order) - walked - 1
        if decision.branched and committed + len(decision.tokens) + remaining > max_branches:
            decision = BranchDecision(decision.entropy, decision.tokens[:1], decision.logprobs[:1])
            result[pos] = decision
        committed += len(decision.tokens)
    return result


def select_result(branches: Sequence[BranchState]) -> BranchState:
    """The most probable branch; ties go to the lowest id."""
    return min(branches, key=lambda b: (-b.cumulative_logprob, b.branch_id))


def _validate_run_inputs(provider, prompt: Sequence[TokenId], config: DtsConfig) -> tuple[TokenId, ...]:
    """The prompt as checked token ids; the end tokens and ``k`` must fit the vocabulary too."""
    vocab_size = provider.vocab_size
    prompt = token_ids(prompt, vocab_size)
    token_ids(config.end_tokens, vocab_size)
    if config.k > vocab_size:
        raise InvalidInputError(f"k={config.k} exceeds vocabulary size {vocab_size}")
    return prompt


def _distributions_at(provider, prompt, sequences, step, temperature):
    """The provider's rows for the token ``sequences``: as they are at temperature 1,
    else each row becomes ``softmax(log p / temperature)``, so a zero stays zero."""
    try:
        dists = provider.next_distributions(prompt, sequences)
    except Exception as exc:
        raise ProviderError(f"provider failed at engine step {step}") from exc
    if len(dists) != len(sequences):
        raise ProviderError(
            f"provider returned {len(dists)} distributions for {len(sequences)} branches at step {step}"
        )
    if temperature == 1.0:
        return dists
    with np.errstate(divide="ignore"):
        return [softmax(np.log(d.probs) / temperature) for d in dists]


def run_dts(provider, prompt: Sequence[TokenId], config: DtsConfig, rng=None) -> RunResult:
    """Entropy-gated tree search with lockstep expansion and early stop.

    Each step batches one provider call over all branches, decides per
    branch whether to fan out, enforces the frontier budget, expands, and
    stops as soon as any child finishes, returning the most probable
    finished child. Uniform draws are consumed in ascending branch-id
    order, one per non-branching decision. If no branch finishes within
    ``config.max_tokens`` steps the most probable branch is returned with
    ``terminated=False``.

    ``rng`` is an instrumentation hook; by default a fresh stream seeded
    from ``config.seed`` is used.
    """
    prompt = _validate_run_inputs(provider, prompt, config)
    if rng is None:
        rng = SplitMix64(config.seed)

    branches = [BranchState(tokens=(), cumulative_logprob=0.0, finished=False, branch_id=0)]
    finished: list[BranchState] = []
    traces: list[StepTrace] = []
    branch_events = 0

    for step in range(config.max_tokens):
        dists = _distributions_at(provider, prompt, [b.tokens for b in branches], step, config.temperature)
        # branches are in branch-id order, which fixes the rng draw order
        decisions = [branch_function(d, config, rng) for d in dists]
        decisions = apply_budget(branches, decisions, config.max_branches)
        branch_events += sum(1 for d in decisions if d.branched)
        traces.extend(
            StepTrace(
                step=step,
                branch_id=b.branch_id,
                entropy=d.entropy,
                branched=d.branched,
                chosen_tokens=d.tokens,
            )
            for b, d in zip(branches, decisions)
        )
        branches = expand_frontier(branches, decisions, step, config.end_tokens)
        finished = [b for b in branches if b.finished]
        if finished:
            break

    # the frontier never shrinks, so its final size is its peak
    return RunResult(
        output=select_result(finished or branches),
        terminated=bool(finished),
        steps_executed=step + 1,
        peak_frontier_size=len(branches),
        total_branch_events=branch_events,
        traces=tuple(traces),
    )


def run_standard(provider, prompt: Sequence[TokenId], config: DtsConfig, rng=None) -> RunResult:
    """Single-path ancestral sampling baseline.

    One sampled token per step, exactly one uniform draw per emitted token,
    until an end token or the length cap.
    """
    prompt = _validate_run_inputs(provider, prompt, config)
    if rng is None:
        rng = SplitMix64(config.seed)

    tokens: tuple[TokenId, ...] = ()
    logprob = 0.0
    traces: list[StepTrace] = []
    for step in range(config.max_tokens):
        dist = _distributions_at(provider, prompt, [tokens], step, config.temperature)[0]
        h = entropy(dist)
        token, token_logprob = sample_token(dist, rng)
        tokens = tokens + (token,)
        logprob += token_logprob
        traces.append(
            StepTrace(step=step, branch_id=0, entropy=h, branched=False, chosen_tokens=(token,))
        )
        if token in config.end_tokens:
            break

    finished = tokens[-1] in config.end_tokens
    return RunResult(
        output=BranchState(tokens=tokens, cumulative_logprob=logprob, finished=finished, branch_id=0),
        terminated=finished,
        steps_executed=len(tokens),
        peak_frontier_size=1,
        total_branch_events=0,
        traces=tuple(traces),
    )
