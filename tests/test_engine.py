import dataclasses
import math
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dts import (
    BranchDecision,
    BranchState,
    DtsConfig,
    InvalidInputError,
    ProviderError,
    ScriptedModel,
    SplitMix64,
    apply_budget,
    expand_frontier,
    run_dts,
    run_standard,
    select_result,
)
from dts.branching import entropy, top_k_tokens

from support import (
    NOT_ID_SEQUENCE_NAMES,
    NOT_ID_SEQUENCES,
    RecordingProvider,
    TWO_FORK_WINNER,
    one_hot_logits,
    random_ngram,
    random_pfsa,
    replay_steps,
    row,
    two_fork_scripted,
)

END = frozenset({5})


def json_bytes(result):
    import json

    return json.dumps(result.to_json_dict()).encode("utf-8")


def config(**overrides):
    base = dict(
        tau=0.5, k=2, temperature=1.0, max_tokens=16, end_tokens=END, max_branches=32, seed=0
    )
    base.update(overrides)
    return DtsConfig(**base)


def sampled(token, logprob=-0.1):
    return BranchDecision(entropy=0.1, tokens=(token,), logprobs=(logprob,))


def forked(*tokens, entropy=1.5):
    return BranchDecision(
        entropy=entropy,
        tokens=tuple(tokens),
        logprobs=tuple(-0.5 for _ in tokens),
    )


ROOT = BranchState((), 0.0, False, 0)


class TestExpandFrontier:
    def test_single_path_growth(self):
        out = expand_frontier([ROOT], [sampled(3)], 0, END)
        assert [b.tokens for b in out] == [(3,)]
        assert not out[0].finished

    def test_fork_assigns_lineage(self):
        out = expand_frontier([BranchState((8,), -0.2, False, 0)], [forked(2, 9)], 1, END)
        first, second = out
        assert first.tokens == (8, 2) and first.branch_id == 0
        assert first.parent_branch_id is None and first.fork_step is None
        assert second.tokens == (8, 9) and second.branch_id == 1
        assert second.parent_branch_id == 0 and second.fork_step == 1

    def test_forks_follow_kept_children_in_id_order(self):
        branches = [
            BranchState((8,), -0.2, False, 0),
            BranchState((9,), -0.3, False, 1, parent_branch_id=0, fork_step=0),
        ]
        out = expand_frontier(branches, [forked(2, 3), forked(4, 5, 6)], 1, END)
        assert [b.branch_id for b in out] == [0, 1, 2, 3, 4]
        assert [b.tokens for b in out] == [(8, 2), (9, 4), (8, 3), (9, 5), (9, 6)]
        assert [b.parent_branch_id for b in out] == [None, 0, 0, 1, 1]
        assert [b.fork_step for b in out] == [None, 0, 1, 1, 1]

    def test_logprobs_accumulate(self):
        decision = BranchDecision(entropy=1.0, tokens=(2, 9), logprobs=(-0.5, -1.5))
        out = expand_frontier([BranchState((8,), -0.25, False, 0)], [decision], 1, END)
        assert out[0].cumulative_logprob == pytest.approx(-0.75)
        assert out[1].cumulative_logprob == pytest.approx(-1.75)

    def test_end_token_marks_finished(self):
        out = expand_frontier([BranchState((8,), -0.2, False, 0)], [sampled(5)], 1, END)
        assert out[0].finished

    def test_two_fork_fixture_sizes(self):
        # two high-entropy positions with K=2: 2 branches after the first
        # fork, 3 after the second
        provider = two_fork_scripted()
        cfg = config()
        rng = SplitMix64(0)
        branches = [ROOT]
        sizes = []
        from dts.branching import branch_function

        for step in range(cfg.max_tokens):
            dists = provider.next_distributions((), [b.tokens for b in branches])
            decisions = [branch_function(d, cfg, rng) for d in dists]
            branches = expand_frontier(branches, decisions, step, cfg.end_tokens)
            sizes.append(len(branches))
            if any(b.finished for b in branches):
                break
        assert sizes == [1, 2, 2, 3, 3]

    def test_decision_count_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            expand_frontier([BranchState((8,), -0.2, False, 0)], [sampled(1), sampled(2)], 1, END)


def frontier(*logprobs):
    return [BranchState((), lp, False, bid) for bid, lp in enumerate(logprobs)]


class TestApplyBudget:
    def test_under_budget_unchanged(self):
        decisions = [forked(0, 1, 2)]
        assert apply_budget(frontier(0.0), decisions, 32) == decisions

    def test_full_frontier_demotes_everything(self):
        decisions = [forked(0, 1, 2) for _ in range(3)]
        out = apply_budget(frontier(-1.0, -1.0, -1.0), decisions, 3)
        assert all(not d.branched and len(d.tokens) == 1 for d in out)

    def test_most_probable_branch_keeps_fanout(self):
        # the first branch is the more probable: it keeps 3 children, the
        # second demotes, 3 + 1 = 4 fits the budget exactly
        decisions = [forked(0, 1, 2), forked(3, 4, 0)]
        out = apply_budget(frontier(-0.1, -0.2), decisions, 4)
        assert out[0].branched and len(out[0].tokens) == 3
        assert not out[1].branched and out[1].tokens == (3,)

    def test_tied_logprobs_favour_the_lower_position(self):
        decisions = [forked(0, 1, 2), forked(3, 4, 0)]
        out = apply_budget(frontier(-0.5, -0.5), decisions, 4)
        assert out[0].branched and not out[1].branched
        out = apply_budget(frontier(-0.5, -0.1), decisions, 4)
        assert not out[0].branched and out[1].branched

    def test_demotion_keeps_highest_probability_token(self):
        decision = BranchDecision(entropy=2.0, tokens=(7, 1, 4), logprobs=(-0.1, -0.9, -2.0))
        out = apply_budget(frontier(0.0), [decision], 1)
        assert out[0].tokens == (7,) and out[0].logprobs == (-0.1,)
        assert out[0].entropy == 2.0

    def test_non_branching_decisions_untouched(self):
        decisions = [sampled(1), sampled(2)]
        assert apply_budget(frontier(-0.2, -0.1), decisions, 2) == decisions

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            apply_budget(frontier(0.0), [sampled(1), sampled(2)], 8)


class TestEarlyStopAndSelect:
    def make_branches(self, *specs):
        return [
            BranchState((1,) * 2, lp, finished, bid) for bid, (lp, finished) in enumerate(specs)
        ]

    def test_no_finisher(self):
        # the length-cap exit: the most probable live branch is returned
        branches = self.make_branches((-2.0, False), (-1.0, False), (-3.0, False))
        assert select_result(branches).branch_id == 1

    def test_single_finisher(self):
        # step 0 forks into 0 (live, more probable) and 1 (finishes): the run
        # stops and returns the finished child, not the more probable live one
        provider = ScriptedModel([], [10.0, 0.0, 9.0, 0.0], end_tokens=[2])
        cfg = config(tau=0.3, k=2, end_tokens=frozenset({2}), max_tokens=4)
        result = run_dts(provider, [], cfg)
        assert result.terminated and result.steps_executed == 1
        assert result.output.tokens == (2,) and result.output.branch_id == 1
        assert result.peak_frontier_size == 2

    def test_simultaneous_finishers_both_listed(self):
        # step 0 forks into 0 and 1; at step 1 branch 0 forks into two end
        # tokens and branch 1 ends: all three finish, and the fork child
        # (id 1), which lost fewer nats, must win
        provider = ScriptedModel(
            rules=[
                ([0], [0.0, 0.0, 0.0, 10.0, 10.0]),
                ([1], one_hot_logits(5, 4)),
            ],
            default_logits=[10.0, 9.9, 0.0, 0.0, 0.0],
            end_tokens=[3, 4],
        )
        cfg = config(tau=0.3, k=2, end_tokens=frozenset({3, 4}), max_tokens=4)
        result = run_dts(provider, [], cfg)
        assert result.terminated and result.steps_executed == 2
        assert result.peak_frontier_size == 3
        assert result.output.tokens == (1, 4) and result.output.branch_id == 1

    def test_select_highest_logprob(self):
        assert select_result(self.make_branches((-4.1, True), (-3.2, True))).branch_id == 1

    def test_select_tie_lowest_id(self):
        assert select_result(self.make_branches((-3.0, True), (-3.0, True))).branch_id == 0

    def test_simultaneous_finishers_through_engine(self):
        # a fork whose both children immediately reach the end token; the
        # higher-probability child must win
        provider = ScriptedModel(
            rules=[
                ([0], one_hot_logits(4, 3)),
                ([1], one_hot_logits(4, 3)),
            ],
            default_logits=[10.0, 9.0, 0.0, 0.0],
            end_tokens=[3],
        )
        cfg = config(tau=0.3, k=2, end_tokens=frozenset({3}), max_tokens=4)
        result = run_dts(provider, [], cfg)
        assert result.terminated and result.steps_executed == 2
        # both branches finished at step 2; token 0 carries more mass
        assert result.output.tokens == (0, 3)
        assert result.output.branch_id == 0


def chain_scripted(tokens, vocab=6):
    """Scripted model that deterministically spells out the given chain."""
    rules = []
    for i, token in enumerate(tokens):
        if i == 0:
            default = one_hot_logits(vocab, token)
        else:
            rules.append((list(tokens[:i]), one_hot_logits(vocab, token)))
    rules.reverse()
    return ScriptedModel(rules, default, end_tokens=[vocab - 1])


class TestRunDts:
    def test_immediate_end_token(self):
        provider = chain_scripted([5])
        result = run_dts(provider, [], config())
        assert result.terminated and result.output.tokens == (5,)
        assert result.steps_executed == 1 and result.peak_frontier_size == 1
        assert result.total_branch_events == 0

    def test_two_fork_fixture_full_run(self):
        provider = two_fork_scripted()
        result = run_dts(provider, [], config())
        assert result.output.tokens == TWO_FORK_WINNER
        assert result.terminated
        assert result.total_branch_events == 2
        assert result.peak_frontier_size == 3
        assert result.steps_executed == 5

    def test_trace_shape_matches_run(self):
        result = run_dts(two_fork_scripted(), [], config())
        fork_traces = [t for t in result.traces if t.branched]
        assert len(fork_traces) == 2
        assert all(len(t.chosen_tokens) == 2 for t in fork_traces)
        assert {t.step for t in fork_traces} == {1, 3}

    def test_cap_returns_best_unfinished(self):
        provider = ScriptedModel([], one_hot_logits(4, 1), end_tokens=[3])
        result = run_dts(provider, [], config(end_tokens=frozenset({3}), max_tokens=6, k=2))
        assert not result.terminated
        assert len(result.output.tokens) == 6

    def test_prompt_tokens_validated(self):
        provider = chain_scripted([5])
        with pytest.raises(InvalidInputError):
            run_dts(provider, [99], config())

    @pytest.mark.parametrize("runner", [run_dts, run_standard])
    @pytest.mark.parametrize("end_tokens", [{6}, {5, 99}])
    def test_end_tokens_outside_vocab_rejected(self, runner, end_tokens):
        # the chain model has 6 tokens; an end token it cannot emit would
        # silently run every request to the length cap
        provider = chain_scripted([5])
        with pytest.raises(InvalidInputError, match="outside vocabulary"):
            runner(provider, [], config(end_tokens=frozenset(end_tokens)))

    @pytest.mark.parametrize("prompt", [[1.5], ["1"], [True]])
    def test_prompt_ids_must_be_integers_in_range(self, prompt):
        with pytest.raises(InvalidInputError):
            run_dts(chain_scripted([5]), prompt, config())

    @pytest.mark.parametrize("runner", [run_dts, run_standard])
    @pytest.mark.parametrize("prompt", NOT_ID_SEQUENCES, ids=NOT_ID_SEQUENCE_NAMES)
    def test_prompt_that_is_not_a_sequence_of_ids_rejected(self, runner, prompt):
        with pytest.raises(InvalidInputError, match="sequence of integers"):
            runner(chain_scripted([5]), prompt, config())

    def test_k_above_vocab_rejected(self):
        provider = chain_scripted([5])
        with pytest.raises(InvalidInputError):
            run_dts(provider, [], config(k=7))

    def test_temperature_lowers_traced_entropy(self):
        # providers are temperature-free: the engine rescales their rows,
        # and at temperature 1 it passes them on untouched
        provider = ScriptedModel([], [2.0, 0.0, 1.0], end_tokens=[2])
        entropies = []
        for t in (0.5, 1.0, 4.0):
            result = run_dts(provider, [], config(tau=math.inf, temperature=t, end_tokens=frozenset({2})))
            entropies.append(result.traces[0].entropy)
        assert entropies[0] < entropies[1] < entropies[2]
        assert entropies[1] == entropy(row(provider, (), ()))

    def test_provider_failure_carries_step_context(self):
        from dts import DistributionProvider

        class Exploding(DistributionProvider):
            def next_distributions(self, prompt, sequences):
                raise RuntimeError("boom")

        with pytest.raises(ProviderError, match="step 0") as excinfo:
            run_dts(Exploding(4, [3]), [], config(end_tokens=frozenset({3}), k=2))
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    @pytest.mark.parametrize("run", [run_dts, run_standard], ids=["dts", "standard"])
    @pytest.mark.parametrize("size", [2, 4])
    def test_row_of_another_vocabulary_size_rejected(self, run, size):
        from dts import DistributionProvider, TokenDistribution

        class WrongSize(DistributionProvider):
            def next_distributions(self, prompt, sequences):
                return [TokenDistribution([1.0 / size] * size) for _ in sequences]

        # a 4-entry row would let the run emit ids outside the vocabulary, a
        # 2-entry one would shrink top-K without a word
        with pytest.raises(ProviderError, match=f"row of {size} entries for vocabulary size 3 at step 0"):
            run(WrongSize(3, [2]), [], config(end_tokens=frozenset({2}), k=3, tau=0.0))

    def test_no_step_after_first_finish(self):
        provider = RecordingProvider(two_fork_scripted())
        result = run_dts(provider, [], config())
        assert result.terminated
        longest_queried = max(len(tokens) for _, tokens in provider.seen)
        # the winner is 5 tokens long; position 4 is the last queried prefix
        assert longest_queried == len(result.output.tokens) - 1

    def test_determinism_including_traces(self):
        provider = random_ngram(3)
        cfg = config(end_tokens=frozenset({provider.vocab_size - 1}), tau=0.4, seed=9)
        a = run_dts(provider, [0], cfg)
        b = run_dts(provider, [0], cfg)
        assert a == b

    def test_draw_order_is_ascending_branch_id(self):
        # step 0 forks into ids 0 and 1; step 1 samples both. The first
        # uniform draw must land on branch 0 and the second on branch 1.
        from dts.branching import sample_token

        vocab = 4
        provider = ScriptedModel(
            rules=[
                ([0], one_hot_logits(vocab, 0, 1)),
                ([1], one_hot_logits(vocab, 1, 2)),
            ],
            default_logits=one_hot_logits(vocab, 0, 1, 2),
            end_tokens=[3],
        )
        dist0 = row(provider, (), (0,))
        dist1 = row(provider, (), (1,))

        def draws_for(seed):
            rng = SplitMix64(seed)
            return rng.uniform(), rng.uniform()

        def tokens_for(seed, swapped=False):
            u1, u2 = draws_for(seed)
            if swapped:
                u1, u2 = u2, u1
            from support import FixedRng

            return (
                sample_token(dist0, FixedRng([u1]))[0],
                sample_token(dist1, FixedRng([u2]))[0],
            )

        # pick a seed where swapping the two draws would visibly change the
        # outcome, so the assertion genuinely pins the order
        seed = next(s for s in range(100) if tokens_for(s) != tokens_for(s, swapped=True))
        tok0, tok1 = tokens_for(seed)
        cfg = config(tau=0.75, k=2, end_tokens=frozenset({3}), max_tokens=2, seed=seed)

        result = run_dts(provider, [], cfg)
        step1 = sorted((t for t in result.traces if t.step == 1), key=lambda t: t.branch_id)
        assert [t.branch_id for t in step1] == [0, 1]
        assert [t.chosen_tokens[0] for t in step1] == [tok0, tok1]


class TestRunStandard:
    def test_one_hot_chain(self):
        provider = chain_scripted([4, 4, 5])
        result = run_standard(provider, [], config())
        assert result.terminated and result.output.tokens == (4, 4, 5)
        assert result.total_branch_events == 0 and result.peak_frontier_size == 1

    def test_reproducible_across_runs(self):
        from support import random_pfsa

        for provider in (random_ngram(7), random_pfsa(7, require_path_within=10)):
            cfg = config(end_tokens=provider.end_tokens, seed=123, max_tokens=20)
            first = run_standard(provider, [], cfg)
            second = run_standard(provider, [], cfg)
            assert first == second
            assert json_bytes(first) == json_bytes(second)

    def test_cap_without_end_token(self):
        provider = ScriptedModel([], one_hot_logits(4, 1), end_tokens=[3])
        result = run_standard(provider, [], config(end_tokens=frozenset({3}), max_tokens=5))
        assert not result.terminated and len(result.output.tokens) == 5

    def test_one_draw_per_emitted_token(self):
        provider = random_ngram(5)
        cfg = config(end_tokens=frozenset({provider.vocab_size - 1}), max_tokens=12, seed=4)
        rng = SplitMix64(cfg.seed)
        result = run_standard(provider, [], cfg, rng=rng)
        assert rng.draws == len(result.output.tokens)


class TestEquivalenceAndBudget:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_infinite_tau_matches_standard(self, seed):
        provider = random_ngram(seed)
        cfg = config(
            tau=math.inf, end_tokens=frozenset({provider.vocab_size - 1}), seed=seed,
            max_tokens=24,
        )
        rng_a, rng_b = SplitMix64(seed), SplitMix64(seed)
        a = run_dts(provider, [0], cfg, rng=rng_a)
        b = run_standard(provider, [0], cfg, rng=rng_b)
        assert a.output.tokens == b.output.tokens
        assert a.output.cumulative_logprob == b.output.cumulative_logprob
        assert rng_a.draws == rng_b.draws

    @pytest.mark.parametrize("seed,budget,k", [(0, 2, 3), (1, 3, 2), (2, 4, 4), (3, 7, 3)])
    def test_budget_never_exceeded(self, seed, budget, k):
        provider = random_ngram(seed + 20)
        cfg = config(
            tau=0.3, k=min(k, provider.vocab_size), max_branches=budget,
            end_tokens=frozenset({provider.vocab_size - 1}), seed=seed, max_tokens=20,
        )
        result = run_dts(provider, [], cfg)
        assert result.peak_frontier_size <= budget

    def test_demoted_decisions_keep_argmax(self):
        provider = RecordingProvider(random_ngram(31))
        cfg = config(
            tau=0.2, k=3, max_branches=3,
            end_tokens=frozenset({provider.vocab_size - 1}), seed=5, max_tokens=16,
        )
        result = run_dts(provider, [], cfg)
        demoted = 0
        for _, rows in replay_steps(result.traces):
            for trace, prefix in rows:
                dist = provider.seen[((), prefix)]
                if not trace.branched and trace.entropy >= cfg.tau:
                    demoted += 1
                    assert trace.chosen_tokens[0] == top_k_tokens(dist, 1)[0][0]
        assert demoted > 0

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        tau=st.sampled_from([0.0, 0.3, 0.7, 1.2, math.inf]),
        k=st.integers(min_value=1, max_value=3),
        budget=st.integers(min_value=1, max_value=8),
        max_tokens=st.integers(min_value=1, max_value=24),
        temperature=st.sampled_from([0.3, 1.0, 3.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_pfsa_run_invariants(self, seed, tau, k, budget, max_tokens, temperature):
        # the emissions are sparse: a zero that a temperature made positive
        # would lead the automaton to a token it has no transition for
        provider = random_pfsa(seed)
        cfg = config(
            tau=tau, k=k, max_branches=budget, max_tokens=max_tokens,
            end_tokens=provider.end_tokens, seed=seed, temperature=temperature,
        )
        result = run_dts(provider, [], cfg)
        assert result.peak_frontier_size <= budget
        assert result.terminated == result.output.finished
        assert result.steps_executed == len(result.output.tokens)
        assert result.output.branch_id < result.peak_frontier_size
        standard_cfg = dataclasses.replace(cfg, tau=math.inf)
        assert json_bytes(run_dts(provider, [], standard_cfg)) == json_bytes(
            run_standard(provider, [], standard_cfg)
        )


def test_benchmark_hooks_are_module_globals(monkeypatch):
    # perfbench's tracer wraps these dts.engine names and reads the
    # decisions from apply_budget's second positional argument
    import dts.engine as engine

    calls = Counter()
    budget_args = []

    def counting(name):
        inner = getattr(engine, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "apply_budget":
                budget_args.append(args)
            return inner(*args, **kwargs)

        return wrapper

    for name in ("branch_function", "expand_frontier", "apply_budget", "entropy", "sample_token"):
        monkeypatch.setattr(engine, name, counting(name))

    result = run_dts(two_fork_scripted(), [], config())
    assert calls == {
        "branch_function": len(result.traces),
        "expand_frontier": result.steps_executed,
        "apply_budget": result.steps_executed,
    }
    for branches, decisions, *_ in budget_args:
        assert len(decisions) == len(branches)
        assert all(isinstance(d, BranchDecision) for d in decisions)
    assert sum(d.branched for _, decisions, *_ in budget_args for d in decisions) == 2

    calls.clear()
    result = run_standard(two_fork_scripted(), [], config())
    assert calls == {"entropy": result.steps_executed, "sample_token": result.steps_executed}


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["tree-long", "vocab-wide", "remote-loopback", "eval-batch"])
def test_benchmark_traces_every_predicted_layer(monkeypatch, tmp_path, name):
    # the benchmark's traced mode stops when a layer it predicts records no
    # call; one short request per workload, traced as it traces them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    inst = wl.build(0)
    try:
        inst.tmpdir = str(tmp_path)
        if name == "eval-batch":
            items, eval_config = inst.reqs[0]
            inst.reqs[0] = (items[:4], eval_config)
        tracer = Tracer()
        with tracer.installed(inst.provider, inst.session):
            record, _ = inst.run(0)
        assert tracer.missing(wl.predicted) == []
        assert inst.check(record, 0) == []
    finally:
        # stops the remote-loopback server child
        inst.close()
