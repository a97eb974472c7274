"""Frontier expansion, budget enforcement, early stopping and the two
decoding loops: the branching tree search and the single-path baseline.

The engine advances all branches in lockstep, one token per step, so every
unfinished branch at step t holds exactly t tokens. The first branch to emit
an end token therefore carries a shortest completed path in the sketched
tree, and the run stops there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .branching import BranchDecision, branch_function, entropy, sample_token
from .core import (
    BranchState,
    DtsConfig,
    Frontier,
    InvalidInputError,
    LogicError,
    ProviderError,
    RunResult,
    StepTrace,
    TokenId,
)
from .rng import SplitMix64


@dataclass(frozen=True)
class EarlyStopOutcome:
    """Which branches, if any, finished at the current step."""

    stopped: bool
    winners: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "winners", tuple(self.winners))
        if self.stopped != bool(self.winners):
            raise InvalidInputError("stopped must hold exactly when winners is non-empty")


def expand_frontier(
    frontier: Frontier,
    decisions: Sequence[BranchDecision],
    end_tokens: frozenset[TokenId],
) -> Frontier:
    """Replace each unfinished branch by one child per decided token.

    The first child of a decision keeps the parent's branch id; later
    children get fresh ids and record the parent id and the step at which
    the fork occurred. A child whose new token is an end token is marked
    finished. Finished branches already in the frontier pass through
    unchanged.
    """
    active = [b for b in frontier.branches if not b.finished]
    if len(decisions) != len(active):
        raise InvalidInputError(
            f"{len(decisions)} decisions for {len(active)} unfinished branches"
        )
    children = [b for b in frontier.branches if b.finished]
    next_id = frontier.next_branch_id
    for branch, decision in zip(active, decisions):
        for j, (token, logprob) in enumerate(zip(decision.tokens, decision.logprobs)):
            if j == 0:
                branch_id = branch.branch_id
                parent_id = branch.parent_branch_id
                fork_step = branch.fork_step
            else:
                branch_id = next_id
                next_id += 1
                parent_id = branch.branch_id
                fork_step = frontier.step
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
    children.sort(key=lambda b: b.branch_id)
    return Frontier(step=frontier.step + 1, branches=tuple(children), next_branch_id=next_id)


def apply_budget(
    frontier_size: int,
    decisions: Sequence[BranchDecision],
    branch_order: Sequence[int],
    max_branches: int,
) -> list[BranchDecision]:
    """Demote branching decisions that would push the frontier over budget.

    ``branch_order`` lists positions into ``decisions`` sorted by the owning
    branch's cumulative log-probability, highest first, so probable paths
    win fan-out under contention. The walk reserves one child for every
    branch not yet visited; a branching decision survives only if its full
    fan-out plus those reservations fits in ``max_branches``. A demoted
    decision keeps its single most probable token.
    """
    if frontier_size != len(decisions) or sorted(branch_order) != list(range(len(decisions))):
        raise InvalidInputError("branch_order must be a permutation over the decisions")
    result = list(decisions)
    committed = 0
    for walked, pos in enumerate(branch_order):
        decision = result[pos]
        remaining = len(branch_order) - walked - 1
        if decision.branched and committed + len(decision.tokens) + remaining > max_branches:
            decision = BranchDecision(
                entropy=decision.entropy,
                branched=False,
                tokens=decision.tokens[:1],
                logprobs=decision.logprobs[:1],
            )
            result[pos] = decision
        committed += len(decision.tokens)
    return result


def check_early_stop(frontier: Frontier) -> EarlyStopOutcome:
    """Collect every branch that has emitted an end token at this step."""
    winners = tuple(b.branch_id for b in frontier.branches if b.finished)
    return EarlyStopOutcome(stopped=bool(winners), winners=winners)


def select_result(frontier: Frontier, outcome: EarlyStopOutcome) -> BranchState:
    """Among finished branches, pick the most probable; ties go to the lowest id."""
    if not outcome.stopped:
        raise LogicError("select_result requires a stopped outcome")
    winners = [b for b in frontier.branches if b.branch_id in set(outcome.winners)]
    return min(winners, key=lambda b: (-b.cumulative_logprob, b.branch_id))


def _validate_run_inputs(provider, prompt: Sequence[TokenId], config: DtsConfig):
    for t in prompt:
        if not 0 <= int(t) < provider.vocab_size:
            raise InvalidInputError(f"prompt token {t} outside vocabulary of size {provider.vocab_size}")
    if config.k > provider.vocab_size:
        raise InvalidInputError(f"k={config.k} exceeds vocabulary size {provider.vocab_size}")


def _distributions_at(provider, prompt, branches, step):
    try:
        dists = provider.next_distributions(prompt, branches)
    except Exception as exc:
        raise ProviderError(f"provider failed at engine step {step}") from exc
    if len(dists) != len(branches):
        raise ProviderError(
            f"provider returned {len(dists)} distributions for {len(branches)} branches at step {step}"
        )
    return dists


def run_dts(provider, prompt: Sequence[TokenId], config: DtsConfig, rng=None) -> RunResult:
    """Entropy-gated tree search with lockstep expansion and early stop.

    Each step batches one provider call over all unfinished branches,
    decides per branch whether to fan out, enforces the frontier budget,
    expands, and stops as soon as any branch finishes. Uniform draws are
    consumed in ascending branch-id order, one per non-branching decision.
    If no branch finishes within ``config.max_tokens`` steps the most
    probable branch is returned with ``terminated=False``.

    ``rng`` is an instrumentation hook; by default a fresh stream seeded
    from ``config.seed`` is used.
    """
    prompt = tuple(int(t) for t in prompt)
    _validate_run_inputs(provider, prompt, config)
    if rng is None:
        rng = SplitMix64(config.seed)

    root = BranchState(tokens=(), cumulative_logprob=0.0, finished=False, branch_id=0)
    frontier = Frontier(step=0, branches=(root,), next_branch_id=1)
    traces: list[StepTrace] = []
    peak = 1
    branch_events = 0

    while frontier.step < config.max_tokens:
        active = [b for b in frontier.branches if not b.finished]
        dists = _distributions_at(provider, prompt, active, frontier.step)
        # active is sorted by branch_id, which fixes the rng draw order
        decisions = [branch_function(d, config, rng) for d in dists]
        order = sorted(
            range(len(active)),
            key=lambda i: (-active[i].cumulative_logprob, active[i].branch_id),
        )
        decisions = apply_budget(len(active), decisions, order, config.max_branches)
        branch_events += sum(1 for d in decisions if d.branched)
        traces.extend(
            StepTrace(
                step=frontier.step,
                branch_id=b.branch_id,
                entropy=d.entropy,
                branched=d.branched,
                chosen_tokens=d.tokens,
            )
            for b, d in zip(active, decisions)
        )
        frontier = expand_frontier(frontier, decisions, config.end_tokens)
        peak = max(peak, len(frontier.branches))
        outcome = check_early_stop(frontier)
        if outcome.stopped:
            return RunResult(
                output=select_result(frontier, outcome),
                terminated=True,
                steps_executed=frontier.step,
                peak_frontier_size=peak,
                total_branch_events=branch_events,
                traces=tuple(traces),
            )

    fallback = min(frontier.branches, key=lambda b: (-b.cumulative_logprob, b.branch_id))
    return RunResult(
        output=fallback,
        terminated=False,
        steps_executed=frontier.step,
        peak_frontier_size=peak,
        total_branch_events=branch_events,
        traces=tuple(traces),
    )


def run_standard(provider, prompt: Sequence[TokenId], config: DtsConfig, rng=None) -> RunResult:
    """Single-path ancestral sampling baseline.

    One sampled token per step, exactly one uniform draw per emitted token,
    until an end token or the length cap.
    """
    prompt = tuple(int(t) for t in prompt)
    _validate_run_inputs(provider, prompt, config)
    if rng is None:
        rng = SplitMix64(config.seed)

    tokens: tuple[TokenId, ...] = ()
    logprob = 0.0
    traces: list[StepTrace] = []
    for step in range(config.max_tokens):
        state = BranchState(tokens=tokens, cumulative_logprob=logprob, finished=False, branch_id=0)
        dist = _distributions_at(provider, prompt, [state], step)[0]
        h = entropy(dist)
        token, token_logprob = sample_token(dist, rng)
        tokens = tokens + (token,)
        logprob += token_logprob
        traces.append(
            StepTrace(step=step, branch_id=0, entropy=h, branched=False, chosen_tokens=(token,))
        )
        if token in config.end_tokens:
            output = BranchState(
                tokens=tokens, cumulative_logprob=logprob, finished=True, branch_id=0
            )
            return RunResult(
                output=output,
                terminated=True,
                steps_executed=step + 1,
                peak_frontier_size=1,
                total_branch_events=0,
                traces=tuple(traces),
            )

    output = BranchState(tokens=tokens, cumulative_logprob=logprob, finished=False, branch_id=0)
    return RunResult(
        output=output,
        terminated=False,
        steps_executed=config.max_tokens,
        peak_frontier_size=1,
        total_branch_events=0,
        traces=tuple(traces),
    )
