"""Seeded inputs and the four closed-loop workloads of the decode benchmark.

Every input (automata, corpora, prompts, datasets, per-request seeds) is
generated from the one workload seed, so the program under test only ever
sees generated data. A workload's ``setup`` builds the provider (and, for
``remote-loopback``, the server child), makes one warm-up request and
returns an :class:`Instance` whose ``run(i)`` performs request ``i`` through
the package's public entry points and returns a digestible record.

Shapes, and why each workload exists:

* ``tree-long``: V=64 PFSA whose entropy sits above ``tau`` almost
  everywhere, so the frontier saturates at ``max_branches`` and runs reach
  the length cap. Frontier bookkeeping is O(B*L) per step, so the engine
  does most of the work and vocabulary math is cheap.
* ``vocab-wide``: order-2 n-gram model at V=50257 trained on a Zipf corpus,
  ``tau`` between the flat and the peaked contexts so positions both fork
  and sample. Per-row cost is vocabulary math (entropy, top-K, sampling).
* ``remote-loopback``: the tree-long automaton family served by
  ``ProviderServer`` in a child process on 127.0.0.1, decoded through one
  ``RemoteProvider`` over one keep-alive connection. Each step is one HTTP
  round trip.
* ``eval-batch``: ``run_eval`` with ``jobs=1`` on a small word-vocabulary
  automaton, both methods and several seeds per item. Runs are short and
  many, some loop until the repetition detector fires, so per-run fixed
  costs of the harness and the engine dominate.

Requests are kept short enough (T=256 on tree-long, T=16 on vocab-wide and
remote-loopback) that each timed run collects enough of them for a tail
percentile. The requests of a workload repeat in passes, and each pass of
a local workload starts on a freshly built provider (``Instance.new_pass``),
so no pass is answered from the caches of the one before.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import select
import subprocess
import sys
from typing import Callable

import numpy as np
import requests

from dts import DtsConfig, NGramModel, PfsaModel, RemoteProvider, engine, evalharness, train_ngram
from dts.evalharness import EvalItem

HERE = os.path.dirname(os.path.abspath(__file__))

TREE = {"vocab": 64, "states": 8, "tau": 2.0, "k": 3, "max_branches": 32, "max_tokens": 256, "requests": 1}
VOCAB = {"vocab": 50257, "top": 64, "corpus_tokens": 150_000, "alpha": 1e-3, "tau": 4.5, "k": 3, "max_branches": 8,
         "max_tokens": 16, "requests": 24}
REMOTE = {"vocab": 64, "states": 8, "tau": 2.0, "k": 3, "max_branches": 32, "max_tokens": 16, "requests": 6}
EVAL = {"tau": 1.5, "k": 2, "max_branches": 8, "max_tokens": 48, "items": 128, "seeds": (0, 1, 2)}

# a child that prints nothing within this many seconds is taken as failed
SERVER_START_TIMEOUT = 60.0
WARMUP_TOKENS = 4
# seeds the rank-to-id layout of the vocab-wide vocabulary, which stays fixed
LAYOUT_SEED = 50257
# chance that a vocab-wide corpus token is the end token
END_P = 1e-3
EVAL_FIELDS = ("item_id", "seed", "method", "correct", "length", "terminated", "repetition", "error")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def tree_pfsa(seed: int, vocab: int, states: int) -> PfsaModel:
    """Random automaton with a peaked initial state and the rest near-flat.

    The peaked initial state (entropy below 1.2 nats, 80 % on one token) is
    left for good after the first token, which is therefore the one sampled
    position; every later row sits in a flat state (~3.7 nats) and forks,
    so the frontier grows 1, 1, 3, 9, 27, 31 on every seed. The end token
    is rare enough that runs reach the length cap.
    """
    rs = _rng(seed, 1)
    end = vocab - 1
    end_p = 1e-5
    emissions, transitions = {}, {}
    for state in range(states):
        weights = rs.dirichlet(np.full(vocab - 1, 0.05 if state == 0 else 1.0))
        if state == 0:
            weights = 0.2 * weights + 0.8 * np.eye(vocab - 1)[rs.integers(vocab - 1)]
        row = np.append(weights * (1.0 - end_p), end_p)
        emissions[state] = (row / row.sum()).tolist()
        transitions[state] = {t: int(rs.integers(1, states)) for t in range(vocab - 1)}
    return PfsaModel(0, emissions, transitions, [end])


def vocab_layout(vocab: int) -> np.ndarray:
    """Fixed map from frequency rank to token id, the same for every seed.

    Frequent ids are spread over the whole id range, as in a BPE vocabulary,
    so an inverse-CDF sample walks about half the vector on every seed.
    Ranks 0-2 are ids 0-2: an unseen context is uniform, forks into the
    lowest ids, and they must be trained contexts for such a branch to
    recover.
    """
    layout = np.random.default_rng(LAYOUT_SEED).permutation(vocab - 1)
    layout = np.concatenate([[0, 1, 2], layout[layout > 2]])
    return layout


def zipf_ngram(seed: int, vocab: int, top: int, tokens: int, alpha: float):
    """Order-2 n-gram model over ``vocab`` ids trained on a Zipf Markov corpus.

    Every context draws its next token by a Zipf law over the frequency
    ranks of :func:`vocab_layout`. Half of the ``top`` most frequent ids
    are flat contexts (exponent 0.9, ~7 nats, fork) and half peaked ones
    (exponent 1.7, ~3 nats, sample); each context ranks the top ids of the
    other kind first, so chains alternate and about half of all positions
    fork. Below the top ranks the law reaches the whole vocabulary, so the
    frequent contexts see a thousand or more distinct continuations spread
    over the id range, and the smoothing floor ties only the unseen rest,
    as it does in any count model. ``tokens`` corpus tokens are drawn as
    parallel chains; a chain restarts after the rare end token.
    """
    rs = _rng(seed, 2)
    end = vocab - 1
    layout = vocab_layout(vocab)
    ids = layout[:top]
    flat = rs.permutation(top) < top // 2
    # the continuation of rank r < top from context slot s is heads[s, r]
    heads = np.array([np.concatenate([rs.permutation(ids[flat != flat[s]]), rs.permutation(ids[flat == flat[s]])])
                      for s in range(top)])
    slot = np.zeros(vocab, dtype=np.int64)
    slot[layout] = np.arange(vocab - 1) % top
    ranks = np.arange(1, vocab, dtype=np.float64)
    cums = []
    for exponent in (1.7, 0.9):
        law = ranks ** -exponent
        cums.append(np.cumsum(law / law.sum()))
    chains, length = 1000, tokens // 1000
    corpus_ids = np.empty((chains, length), dtype=np.int64)
    current = ids[rs.integers(top, size=chains)]
    for t in range(length):
        corpus_ids[:, t] = current
        s = slot[current]
        u = rs.random(chains)
        rank = np.where(flat[s], np.searchsorted(cums[1], u, side="right"), np.searchsorted(cums[0], u, side="right"))
        rank = np.minimum(rank, vocab - 2)
        drawn = np.where(rank < top, heads[s, np.minimum(rank, top - 1)], layout[rank])
        drawn = np.where(rs.random(chains) < END_P, end, drawn)
        current = np.where(current == end, ids[rs.integers(top, size=chains)], drawn)
    corpus = []
    for row in corpus_ids.tolist():
        seq = []
        for token in row:
            seq.append(token)
            if token == end:
                corpus.append(seq)
                seq = []
        if seq:
            corpus.append(seq)
    return train_ngram(corpus, 2, alpha, vocab_size=vocab, end_tokens=[end]), ids[flat], ids[~flat]


def ngram_copy(model: NGramModel) -> NGramModel:
    """The same model with an empty distribution cache."""
    return NGramModel(model.n, model.alpha, model.counts, model.vocab_size, model.end_tokens)


EVAL_WORDS = ("so", "then", "think", "check", "wait") + tuple(f"\\boxed{{{d}}}" for d in range(10)) + ("<e>",)


def eval_pfsa(seed: int) -> PfsaModel:
    """A flat reasoning state that forks, a peaked one that boxes an answer.

    From the flat state both top-2 words lead to the peaked state, where a
    run usually boxes a digit (then ends); the rarer 'wait' leads into a
    loop whose long 'wait wait ...' tails are what the repetition detector
    catches when a run hits the length cap.
    """
    rs = _rng(seed, 3)
    so, then, think, check, wait = range(5)
    end = len(EVAL_WORDS) - 1
    boxed = np.arange(5, 15)
    flat = np.zeros(len(EVAL_WORDS))
    flat[[so, think, then, check, wait]] = [0.30, 0.26, 0.16, 0.12, 0.06]
    flat[boxed] = rs.dirichlet(np.full(10, 1.0)) * 0.10
    peaked = np.zeros(len(EVAL_WORDS))
    peaked[boxed] = 0.01
    peaked[boxed[rs.integers(10)]] = 0.35
    peaked[[then, wait]] = [0.45, 0.10]
    loop = np.zeros(len(EVAL_WORDS))
    loop[[wait, so]] = [0.96, 0.04]
    answer = np.zeros(len(EVAL_WORDS))
    answer[end] = 1.0
    to_answer = {int(t): "a" for t in boxed}
    transitions = {
        "r": {so: "s", think: "s", then: "r", check: "r", wait: "w", **to_answer},
        "s": {then: "r", wait: "w", **to_answer},
        "w": {wait: "w", so: "r"},
    }
    emissions = {"r": flat / flat.sum(), "s": peaked / peaked.sum(), "w": loop, "a": answer}
    return PfsaModel("r", {k: v.tolist() for k, v in emissions.items()}, transitions, [end], vocab=EVAL_WORDS)


class CountingProvider:
    """The provider handed to the engine: forwards everything, counts rows.

    One row is one branch advanced by one position, i.e. one sequence in a
    ``next_distributions`` batch. The count is taken here, at the provider
    boundary, so it does not depend on the engine keeping traces.
    """

    def __init__(self, inner):
        self.inner = inner
        self.rows = 0

    def next_distributions(self, prompt, sequences):
        self.rows += len(sequences)
        return self.inner.next_distributions(prompt, sequences)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@dataclasses.dataclass
class Instance:
    """One set-up workload: its provider, requests and resources."""

    workload: "Workload"
    provider: CountingProvider
    reference: object
    reqs: list
    session: requests.Session | None = None
    child: subprocess.Popen | None = None
    server_totals: dict | None = None
    tmpdir: str | None = None
    # builds the provider anew; None where the provider lives in the server
    fresh: Callable[[], object] | None = None

    def new_pass(self) -> None:
        """Start a pass over the requests on a provider with empty caches.

        The requests repeat from pass to pass; a cache filled by one pass
        would answer the next, and the provider's own work would vanish
        from every pass after the first.
        """
        if self.fresh is not None:
            self.provider.inner = self.fresh()

    def run(self, i: int) -> tuple[dict, dict]:
        return self.workload.run(self, i)

    def check(self, record: dict, i: int) -> list[str]:
        return self.workload.check(self, record, i)

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None
        if self.child is not None:
            self.server_totals = stop_server(self.child)
            self.child = None


class Workload:
    name: str
    # layer spans a traced run must see called at least once
    predicted: tuple[str, ...] = (
        "run_dts", "provider", "branch_function", "expand_frontier", "apply_budget",
        "entropy", "top_k_tokens", "sample_token",
    )
    shape: dict
    # tolerance on the output's cumulative logprob against the path's score
    logprob_tol = 1e-9

    def build(self, seed: int) -> Instance:
        raise NotImplementedError

    def setup(self, seed: int, tmpdir: str) -> Instance:
        inst = self.build(seed)
        inst.tmpdir = tmpdir
        try:
            self.warm_up(inst)
        except BaseException:
            inst.close()
            raise
        return inst

    def warm_up(self, inst: Instance) -> None:
        prompt, config = inst.reqs[0]
        engine.run_dts(inst.provider, prompt, dataclasses.replace(config, max_tokens=WARMUP_TOKENS))

    def decode_requests(self, seed: int, provider, prompt_ids) -> list:
        rs = _rng(seed, 4)
        shape = self.shape
        out = []
        for _ in range(shape["requests"]):
            prompt = tuple(int(t) for t in rs.choice(prompt_ids, size=4))
            config = DtsConfig(
                tau=shape["tau"], k=shape["k"], temperature=1.0, max_tokens=shape["max_tokens"],
                end_tokens=provider.end_tokens, max_branches=shape["max_branches"],
                seed=int(rs.integers(2**63)),
            )
            out.append((prompt, config))
        return out

    def run(self, inst: Instance, i: int) -> tuple[dict, dict]:
        prompt, config = inst.reqs[i]
        rows_before = inst.provider.rows
        result = engine.run_dts(inst.provider, prompt, config)
        out = result.output
        record = {
            "tokens": list(out.tokens),
            "logprob": float(out.cumulative_logprob).hex(),
            "terminated": result.terminated,
            "steps": result.steps_executed,
            "peak": result.peak_frontier_size,
            "events": result.total_branch_events,
            "rows": inst.provider.rows - rows_before,
        }
        return record, {"runs": 1}

    @staticmethod
    def perturb(record: dict) -> dict:
        """A copy one ulp off in the cumulative logprob, for the gate's self-check."""
        logprob = math.nextafter(float.fromhex(record["logprob"]), -math.inf)
        return dict(record, logprob=logprob.hex())

    def check(self, inst: Instance, record: dict, i: int) -> list[str]:
        """Invariants any correct run satisfies, whatever the seed."""
        prompt, config = inst.reqs[i]
        tokens = record["tokens"]
        problems = []
        if record["terminated"] != bool(tokens and tokens[-1] in config.end_tokens):
            problems.append("terminated disagrees with the last token")
        if record["steps"] != len(tokens):
            problems.append("steps differ from the output length")
        if not 1 <= record["peak"] <= config.max_branches:
            problems.append("peak frontier outside [1, max_branches]")
        if record["rows"] < record["steps"]:
            problems.append("fewer rows than steps")
        logprob = float.fromhex(record["logprob"])
        expected = self.path_logprob(inst.reference, prompt, tokens)
        if not math.isclose(logprob, expected, rel_tol=self.logprob_tol, abs_tol=self.logprob_tol):
            problems.append(f"cumulative logprob {logprob} but the path scores {expected}")
        return problems

    @staticmethod
    def path_logprob(model, prompt, tokens) -> float:
        """Sum of per-token log-probabilities, walked without the engine.

        The n-gram probability is computed from the counts, not through the
        model's cached distributions, which would add to the process's
        memory and check the model against itself.
        """
        total = 0.0
        if isinstance(model, PfsaModel):
            state = model.initial_state
            for t in tokens:
                total += math.log(float(model.emissions[state].probs[t]))
                state = model.transitions.get(state, {}).get(t)
            return total
        full = tuple(prompt) + tuple(tokens)
        for j, t in enumerate(tokens, start=len(prompt)):
            ctx = full[j - (model.n - 1):j]
            count = model.counts.get(ctx, {}).get(t, 0)
            total += math.log((count + model.alpha) / (model.context_totals.get(ctx, 0) + model.alpha * model.vocab_size))
        return total


class TreeLong(Workload):
    name = "tree-long"
    shape = TREE

    def build(self, seed):
        def fresh():
            return tree_pfsa(seed, TREE["vocab"], TREE["states"])

        model = fresh()
        reqs = self.decode_requests(seed, model, np.arange(TREE["vocab"] - 1))
        return Instance(self, CountingProvider(fresh()), model, reqs, fresh=fresh)


class VocabWide(Workload):
    name = "vocab-wide"
    shape = VOCAB
    # each pass's fresh model builds a distribution per new context
    predicted = Workload.predicted + ("TokenDistribution",)

    def build(self, seed):
        model, flat, peaked = zipf_ngram(seed, VOCAB["vocab"], VOCAB["top"], VOCAB["corpus_tokens"], VOCAB["alpha"])
        reqs = self.decode_requests(seed, model, np.concatenate([flat, peaked]))
        # half the prompts end in a flat context and half in a peaked one,
        # so the fork/sample mix is the same on every seed
        rs = _rng(seed, 6)
        reqs = [((*prompt[:-1], int(rs.choice(flat if i % 2 else peaked))), config)
                for i, (prompt, config) in enumerate(reqs)]
        return Instance(self, CountingProvider(ngram_copy(model)), model, reqs, fresh=lambda: ngram_copy(model))


class RemoteLoopback(Workload):
    name = "remote-loopback"
    shape = REMOTE
    predicted = Workload.predicted + ("http", "TokenDistribution")
    # the wire carries logprobs, so the client's renormalised probabilities
    # may differ from the automaton's in the last bits
    logprob_tol = 1e-6

    def build(self, seed):
        reference = tree_pfsa(seed, REMOTE["vocab"], REMOTE["states"])
        child, url = start_server(seed)
        session = requests.Session()
        try:
            provider = RemoteProvider(url, temperature=1.0, session=session)
        except BaseException:
            session.close()
            stop_server(child)
            raise
        reqs = self.decode_requests(seed, reference, np.arange(REMOTE["vocab"] - 1))
        return Instance(self, CountingProvider(provider), reference, reqs, session=session, child=child)


class EvalBatch(Workload):
    name = "eval-batch"
    shape = EVAL
    predicted = Workload.predicted + ("run_eval", "run_standard")

    def build(self, seed):
        model = eval_pfsa(seed)
        rs = _rng(seed, 5)
        config = DtsConfig(
            tau=EVAL["tau"], k=EVAL["k"], temperature=1.0, max_tokens=EVAL["max_tokens"],
            end_tokens=model.end_tokens, max_branches=EVAL["max_branches"],
        )
        items = []
        for n in range(EVAL["items"]):
            words = [EVAL_WORDS[int(t)] for t in rs.integers(0, 5, size=int(rs.integers(2, 8)))]
            # ids feed the per-run seed derivation, so they come from the seed too
            items.append(EvalItem(id=f"q{n:03d}-{int(rs.integers(1 << 32)):08x}", prompt=" ".join(words),
                                  answer=str(int(rs.integers(10)))))
        # a request is one run_eval call over the whole dataset: summed over
        # that many runs its cost moves little from seed to seed, and every
        # sample of a run times the same work
        reqs = [(items, config)]
        return Instance(self, CountingProvider(eval_pfsa(seed)), model, reqs, fresh=lambda: eval_pfsa(seed))

    def warm_up(self, inst):
        items, config = inst.reqs[0]
        evalharness.run_eval(items[:1], inst.provider, dataclasses.replace(config, max_tokens=WARMUP_TOKENS),
                             seeds=[0], methods=["standard"])

    def run(self, inst, i):
        items, config = inst.reqs[i]
        rows_before = inst.provider.rows
        records = evalharness.run_eval(
            items, inst.provider, config, seeds=EVAL["seeds"], methods=["dts", "standard"],
            out_path=os.path.join(inst.tmpdir, "records.jsonl"), jobs=1,
        )
        record = {
            "records": [{f: getattr(r, f) for f in EVAL_FIELDS} for r in records],
            "rows": inst.provider.rows - rows_before,
        }
        return record, {"runs": len(records), "errors": sum(r.error is not None for r in records)}

    @staticmethod
    def perturb(record):
        first = dict(record["records"][0], correct=not record["records"][0]["correct"])
        return dict(record, records=[first] + record["records"][1:])

    def check(self, inst, record, i):
        problems = []
        items, config = inst.reqs[i]
        if len(record["records"]) != 2 * len(EVAL["seeds"]) * len(items):
            problems.append("wrong number of records")
        ids = {item.id for item in items}
        for r in record["records"]:
            if r["error"] is not None:
                problems.append(f"record error: {r['error']}")
            if r["item_id"] not in ids or not 1 <= r["length"] <= config.max_tokens:
                problems.append("record item or length out of range")
            if r["repetition"] and r["terminated"]:
                problems.append("a terminated run flagged as repetition")
        return problems


WORKLOADS = {w.name: w for w in (TreeLong(), VocabWide(), RemoteLoopback(), EvalBatch())}


def start_server(seed: int) -> tuple[subprocess.Popen, str]:
    """Start the server child on port 0 and read its URL from its stdout."""
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "server_child.py"), "--seed", str(seed)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        ready, _, _ = select.select([child.stdout], [], [], SERVER_START_TIMEOUT)
        line = child.stdout.readline() if ready else ""
        if not line.startswith("http://"):
            raise RuntimeError(f"server child did not report a URL (got {line!r})")
        return child, line.strip()
    except BaseException:
        stop_server(child)
        raise


def stop_server(child: subprocess.Popen) -> dict | None:
    """Close the child's stdin, collect the totals it prints, make sure it ended."""
    totals = None
    try:
        child.stdin.close()
        ready, _, _ = select.select([child.stdout], [], [], 10.0)
        if ready:
            line = child.stdout.readline()
            if line.strip():
                totals = json.loads(line)
        child.wait(timeout=10.0)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    return totals
