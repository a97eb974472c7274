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
