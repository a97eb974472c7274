"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every tolerance is pinned here; "exact" means bitwise or integer
equality, never approximate.
"""

import json
import math
import time

import numpy as np
import scipy.stats

from dts import (
    DtsConfig,
    PfsaModel,
    ProviderServer,
    RemoteProvider,
    SplitMix64,
    TokenDistribution,
    detect_repetition,
    entropy,
    run_dts,
    run_eval,
    run_standard,
    sample_token,
    selection_strategy_analysis,
    verify_dts_against_oracle,
)
from dts.branching import top_k_tokens
from dts.cli import main as cli_main
from dts.evalharness import EvalItem

from support import (
    RecordingProvider,
    TWO_FORK_WINNER,
    random_ngram,
    random_pfsa,
    replay_steps,
    row,
    two_fork_scripted,
)


def check(criterion: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion:>2} {name}: {status}{suffix}")
    assert ok, f"criterion {criterion} ({name}): {detail}"


def test_criterion_01_infinite_tau_degenerates_to_standard():
    started = time.perf_counter()
    violations = []
    providers = [random_ngram(i) for i in range(50)] + [random_pfsa(i) for i in range(50)]
    for seed, provider in enumerate(providers):
        config = DtsConfig(
            tau=math.inf, k=3, temperature=1.0, max_tokens=40,
            end_tokens=provider.end_tokens, seed=seed,
        )
        rng_tree, rng_single = SplitMix64(seed), SplitMix64(seed)
        tree = run_dts(provider, [], config, rng=rng_tree)
        single = run_standard(provider, [], config, rng=rng_single)
        if tree.output.tokens != single.output.tokens:
            violations.append((seed, "tokens"))
        if tree.output.cumulative_logprob != single.output.cumulative_logprob:
            violations.append((seed, "logprob"))
        if rng_tree.draws != rng_single.draws:
            violations.append((seed, "draws"))
    elapsed = time.perf_counter() - started
    check(
        1, "tau=inf degeneration",
        not violations and elapsed < 10.0,
        f"100 provider/seed pairs bitwise identical in {elapsed:.2f}s; violations={violations[:3]}",
    )


def test_criterion_02_exhaustive_bfs_matches_oracle():
    started = time.perf_counter()
    failures = []
    for seed in range(50):
        model = random_pfsa(seed, max_vocab=6, require_path_within=8)
        config = DtsConfig(
            tau=0.0, k=model.vocab_size, temperature=1.0, max_tokens=8,
            end_tokens=model.end_tokens, max_branches=10**6,
        )
        if not verify_dts_against_oracle(model, [], config):
            failures.append(seed)
    elapsed = time.perf_counter() - started
    check(
        2, "exhaustive-BFS oracle equivalence",
        not failures and elapsed < 60.0,
        f"50 automata, output length == oracle minimum, {elapsed:.2f}s; failures={failures}",
    )


def _short_answer_family() -> PfsaModel:
    """Correct answers ride the short branch; long branches answer wrong."""
    vocab = ["fast", "slow", "blah", "\\boxed{42}", "\\boxed{13}", "<e>"]
    return PfsaModel(
        initial_state="start",
        emissions={
            "start": [0.5, 0.5, 0.0, 0.0, 0.0, 0.0],
            "win": [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
            "pad": [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            "loop": [0.0, 0.0, 0.5, 0.0, 0.5, 0.0],
            "stop": [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        },
        transitions={
            "start": {0: "win", 1: "pad"},
            "win": {3: "stop"},
            "pad": {2: "loop"},
            "loop": {2: "loop", 4: "stop"},
        },
        end_tokens=[5],
        vocab=vocab,
    )


def test_criterion_03_shortest_strategy_dominates():
    started = time.perf_counter()
    provider = _short_answer_family()
    config = DtsConfig(
        tau=2.5, k=3, temperature=1.0, max_tokens=64, end_tokens=provider.end_tokens,
    )
    items = [EvalItem(id=f"q{i}", prompt="", answer="42") for i in range(4)]
    records = run_eval(items, provider, config, seeds=list(range(100)), methods={"standard"})
    shortest_acc, shortest_len = selection_strategy_analysis(records, "shortest")
    mean_acc, mean_len = selection_strategy_analysis(records, "mean")
    longest_acc, longest_len = selection_strategy_analysis(records, "longest")
    elapsed = time.perf_counter() - started
    ordered = shortest_acc >= mean_acc + 10.0 and mean_acc >= longest_acc + 10.0
    lengths_ordered = shortest_len < mean_len < longest_len
    check(
        3, "shortest-strategy dominance",
        ordered and lengths_ordered and elapsed < 120.0,
        f"accuracy {shortest_acc:.1f} > {mean_acc:.1f} > {longest_acc:.1f} (gaps >= 10 pts), "
        f"lengths {shortest_len:.1f} < {mean_len:.1f} < {longest_len:.1f}, {elapsed:.2f}s",
    )


def test_criterion_04_entropy_units():
    ok = True
    for n in (2, 4, 16, 1024):
        ok = ok and abs(entropy(TokenDistribution(np.full(n, 1.0 / n))) - math.log(n)) < 1e-9
    one_hot = np.zeros(8)
    one_hot[3] = 1.0
    ok = ok and entropy(TokenDistribution(one_hot)) == 0.0
    # frozen arbitrary-precision references
    ok = ok and abs(entropy(TokenDistribution(np.array([0.5, 0.25, 0.25]))) - 1.0397207708399179641) < 1e-9
    ok = ok and abs(entropy(TokenDistribution(np.array([0.7, 0.2, 0.1]))) - 0.80181855254333730856) < 1e-9
    check(4, "entropy unit tests", ok, "uniform=ln n, one-hot=0, mixed cases within 1e-9")


def test_criterion_05_branch_event_accounting():
    provider = two_fork_scripted()
    config = DtsConfig(
        tau=0.5, k=2, temperature=1.0, max_tokens=16, end_tokens=frozenset({5}),
    )
    result = run_dts(provider, [], config)
    ok = (
        result.total_branch_events == 2
        and result.peak_frontier_size == 3
        and result.output.tokens == TWO_FORK_WINNER
        and result.terminated
    )
    check(
        5, "branch-event accounting", ok,
        f"events={result.total_branch_events}, peak={result.peak_frontier_size}, "
        f"output={list(result.output.tokens)}",
    )


def test_criterion_06_budget_safety_stress():
    started = time.perf_counter()
    pool = [random_ngram(i) for i in range(40)]
    violations = []
    demotions = 0
    for i in range(1000):
        inner = pool[i % len(pool)]
        provider = RecordingProvider(inner)
        k = (2, 3, 4)[i % 3]
        budget = 2 + i % 15
        config = DtsConfig(
            tau=0.25, k=min(k, inner.vocab_size), temperature=1.0, max_tokens=18,
            end_tokens=inner.end_tokens, max_branches=budget, seed=i,
        )
        result = run_dts(provider, [], config)
        if result.peak_frontier_size > budget:
            violations.append((i, "budget"))
            continue
        for _, rows in replay_steps(result.traces):
            for trace, prefix in rows:
                if not trace.branched and trace.entropy >= config.tau:
                    demotions += 1
                    dist = provider.seen[((), prefix)]
                    if trace.chosen_tokens[0] != top_k_tokens(dist, 1)[0][0]:
                        violations.append((i, "argmax"))
    elapsed = time.perf_counter() - started
    check(
        6, "budget safety stress",
        not violations and demotions > 0,
        f"1000 runs, peak <= B everywhere, {demotions} demotions all kept argmax, {elapsed:.2f}s",
    )


def _trap_loop_pfsa() -> PfsaModel:
    """Entering the trap (probability 0.4) cycles two tokens forever."""
    vocab = ["trap", "safe", "la", "lb", "done", "<e>"]
    return PfsaModel(
        initial_state="s0",
        emissions={
            "s0": [0.4, 0.6, 0.0, 0.0, 0.0, 0.0],
            "t1": [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            "t2": [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
            "a1": [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
            "a2": [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        },
        transitions={
            "s0": {0: "t1", 1: "a1"},
            "t1": {2: "t2"},
            "t2": {3: "t1"},
            "a1": {4: "a2"},
        },
        end_tokens=[5],
        vocab=vocab,
    )


def test_criterion_07_repetition_reduction():
    started = time.perf_counter()
    provider = _trap_loop_pfsa()
    runs = 500
    rates = {}
    for method, runner, tau in (("standard", run_standard, 2.5), ("dts", run_dts, 0.5)):
        hits = 0
        for seed in range(runs):
            config = DtsConfig(
                tau=tau, k=3, temperature=1.0, max_tokens=48,
                end_tokens=provider.end_tokens, seed=seed,
            )
            result = runner(provider, [], config)
            hits += detect_repetition(result.output.tokens, result.terminated)
        rates[method] = 100.0 * hits / runs
    elapsed = time.perf_counter() - started
    # the trap fires on ~40% of single-path runs; sketching must at least halve it
    sane_baseline = 30.0 <= rates["standard"] <= 50.0
    halved = rates["dts"] <= rates["standard"] / 2.0
    check(
        7, "repetition reduction",
        sane_baseline and halved and elapsed < 120.0,
        f"standard {rates['standard']:.1f}% -> dts {rates['dts']:.1f}% over {runs} runs, "
        f"{elapsed:.2f}s",
    )


def test_criterion_08_cli_determinism(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b c a b\nc b a\na a b c <e>\n")
    argv = [
        "run", "--provider", "ngram", "--corpus", str(corpus), "--order", "2",
        "--tau", "0.9", "--k", "3", "--temperature", "1.0",
        "--max-tokens", "32", "--max-branches", "8", "--seed", "13", "--trace",
    ]
    outputs = []
    for _ in range(3):
        assert cli_main(argv) == 0
        outputs.append(capsys.readouterr().out.encode("utf-8"))
    identical = outputs[0] == outputs[1] == outputs[2]
    parsed = json.loads(outputs[0])
    check(
        8, "run determinism", identical and "output" in parsed,
        f"3 invocations byte-identical ({len(outputs[0])} bytes of JSON)",
    )


def test_criterion_09_wire_protocol_conformance():
    started = time.perf_counter()
    provider = PfsaModel(
        initial_state=0,
        emissions={0: [0.55, 0.3, 0.15, 0.0], 1: [0.25, 0.35, 0.0, 0.4], 2: [0.5, 0.2, 0.2, 0.1]},
        transitions={0: {0: 1, 1: 2, 2: 0}, 1: {0: 2, 1: 1}, 2: {0: 0, 1: 1, 2: 2}},
        end_tokens=[3],
    )
    protocol_errors = 0
    with ProviderServer(provider, kind="logprobs") as server:
        remote = RemoteProvider(server.url)
        handshake_ok = (
            remote.vocab_size == provider.vocab_size
            and remote.end_tokens == provider.end_tokens
        )
        prefixes = [(), (0,), (0, 0), (1,), (1, 1), (2,), (0, 1), (2, 2)]
        mismatches = 0
        for i in range(1000):
            prefix = prefixes[i % len(prefixes)]
            try:
                over_wire = remote.next_distributions((), [prefix])[0]
            except Exception:
                protocol_errors += 1
                continue
            local = row(provider, (), prefix)
            if not np.allclose(over_wire.probs, local.probs, atol=1e-12):
                mismatches += 1
        config = DtsConfig(
            tau=0.6, k=3, temperature=1.0, max_tokens=24,
            end_tokens=provider.end_tokens, seed=21,
        )
        remote_run = run_dts(remote, [], config)
        local_run = run_dts(provider, [], config)
    elapsed = time.perf_counter() - started
    tokens_match = remote_run.output.tokens == local_run.output.tokens
    check(
        9, "wire-protocol conformance",
        handshake_ok and protocol_errors == 0 and mismatches == 0 and tokens_match,
        f"handshake + 1000 step calls, 0 protocol errors, remote run == local run "
        f"{list(local_run.output.tokens)}, {elapsed:.2f}s",
    )


def test_criterion_10_sampling_chi_square():
    target = TokenDistribution(np.array([0.5, 0.25, 0.25]))
    rng = SplitMix64(777)
    draws = 100_000
    counts = [0, 0, 0]
    for _ in range(draws):
        counts[sample_token(target, rng)[0]] += 1
    expected = [draws * p for p in (0.5, 0.25, 0.25)]
    stat, p_value = scipy.stats.chisquare(counts, f_exp=expected)
    check(
        10, "sampling chi-square",
        p_value > 0.001,
        f"chi2={stat:.3f}, p={p_value:.4f} over {draws} draws vs [0.5, 0.25, 0.25]",
    )
