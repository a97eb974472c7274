"""Frontier expansion, budget enforcement and the two decoding loops: the
branching tree search and the single-path baseline.

The engine advances all branches in lockstep, one token per step, so every
branch at step t holds exactly t tokens. The first branch to emit an end
token therefore carries a shortest completed path in the sketched tree, and
the run stops there. The frontier is a list of live branches in branch-id
order; the budget demotes forks and never drops a branch, so it only grows
and its ids are always ``0 .. len - 1``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .branching import BranchDecision, branch_function, entropy, sample_token, softmax
from .core import (
    BranchState,
    DtsConfig,
    InvalidInputError,
    ProviderError,
    RunResult,
    StepTrace,
    TokenId,
    token_ids,
)
from .rng import SplitMix64


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
        tokens, logprobs = decision.tokens, decision.logprobs
        token = tokens[0]
        kept.append(BranchState(branch.tokens + (token,), branch.cumulative_logprob + logprobs[0],
                                token in end_tokens, branch.branch_id, branch.parent_branch_id, branch.fork_step))
        if len(tokens) > 1:
            for token, logprob in zip(tokens[1:], logprobs[1:]):
                forks.append(BranchState(branch.tokens + (token,), branch.cumulative_logprob + logprob,
                                         token in end_tokens, len(branches) + len(forks), branch.branch_id, step))
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
    demoted decision keeps its single most probable token
    (:attr:`BranchDecision.demoted`).

    Every decision holds at least one token, so the children committed
    before a branch are at least the branches walked before it, and a fork
    of ``t`` tokens fits only if ``len(branches) - 1 + t <= max_branches``.
    When no branching decision passes that test, as on a full frontier,
    every one of them is demoted without the sort and the walk; the result
    is the walk's.
    """
    if len(decisions) != len(branches):
        raise InvalidInputError(f"{len(decisions)} decisions for {len(branches)} branches")
    # the most tokens a fork can hold whatever the walk order
    room = max_branches - len(branches) + 1
    if not any(1 < len(d.tokens) <= room for d in decisions):
        return [d.demoted if d.branched else d for d in decisions]
    # a stable sort leaves tied branches in position order
    order = sorted(range(len(branches)), key=lambda i: -branches[i].cumulative_logprob)
    result = list(decisions)
    committed = 0
    for walked, pos in enumerate(order):
        decision = result[pos]
        remaining = len(order) - walked - 1
        if decision.branched and committed + len(decision.tokens) + remaining > max_branches:
            decision = result[pos] = decision.demoted
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


def distributions_at(provider, prompt, sequences, step, temperature):
    """The provider's rows for the token ``sequences``, checked to be one per sequence,
    each of the provider's ``vocab_size``: as they are at temperature 1, else each
    row becomes ``softmax(log p / temperature)``, so a zero stays zero. The oracle
    reads its rows here too, with its depth as the ``step``."""
    try:
        dists = provider.next_distributions(prompt, sequences)
    except Exception as exc:
        raise ProviderError(f"provider failed at step {step}") from exc
    if len(dists) != len(sequences):
        raise ProviderError(
            f"provider returned {len(dists)} distributions for {len(sequences)} branches at step {step}"
        )
    vocab_size = provider.vocab_size
    for dist in dists:
        if dist.vocab_size != vocab_size:
            raise ProviderError(
                f"provider returned a row of {dist.vocab_size} entries for vocabulary size {vocab_size} at step {step}"
            )
    if temperature == 1.0:
        return dists
    with np.errstate(divide="ignore"):
        return [softmax(np.log(d.probs) / temperature) for d in dists]


def run_dts(provider, prompt: Sequence[TokenId], config: DtsConfig, rng=None, *, trace: bool = False) -> RunResult:
    """Entropy-gated tree search with lockstep expansion and early stop.

    Each step batches one provider call over all branches, decides per
    branch whether to fan out, enforces the frontier budget, expands, and
    stops as soon as any child finishes, returning the most probable
    finished child. Uniform draws are consumed in ascending branch-id
    order, one per non-branching decision. If no branch finishes within
    ``config.max_tokens`` steps the most probable branch is returned with
    ``terminated=False``.

    ``trace=True`` records one :class:`StepTrace` per branch per step in
    ``RunResult.traces``; an untraced run builds none and returns
    ``traces=()``. Tracing changes no output and no draw.

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
        dists = distributions_at(provider, prompt, [b.tokens for b in branches], step, config.temperature)
        # branches are in branch-id order, which fixes the rng draw order
        decisions = [branch_function(d, config, rng) for d in dists]
        decisions = apply_budget(branches, decisions, config.max_branches)
        branch_events += sum(1 for d in decisions if d.branched)
        if trace:
            traces.extend(
                StepTrace(step, b.branch_id, d.entropy, d.branched, d.tokens) for b, d in zip(branches, decisions)
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


def run_standard(provider, prompt: Sequence[TokenId], config: DtsConfig, rng=None, *,
                 trace: bool = False) -> RunResult:
    """Single-path ancestral sampling baseline.

    One sampled token per step, exactly one uniform draw per emitted token,
    until an end token or the length cap. ``trace=True`` records each step's
    entropy and token as a :class:`StepTrace`; an untraced run builds none.
    """
    prompt = _validate_run_inputs(provider, prompt, config)
    if rng is None:
        rng = SplitMix64(config.seed)

    tokens: tuple[TokenId, ...] = ()
    logprob = 0.0
    traces: list[StepTrace] = []
    for step in range(config.max_tokens):
        dist = distributions_at(provider, prompt, [tokens], step, config.temperature)[0]
        token, token_logprob = sample_token(dist, rng)
        tokens = tokens + (token,)
        logprob += token_logprob
        if trace:
            traces.append(StepTrace(step, 0, entropy(dist), False, (token,)))
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
