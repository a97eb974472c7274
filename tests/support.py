"""Shared fixtures: deterministic random model generators, a scripted
two-fork tree, trace-replay tooling used to audit engine runs, and a crafted
wire-protocol server."""

from __future__ import annotations

import json
import random
import threading
from collections import defaultdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from dts import DistributionProvider, NGramModel, PfsaModel, ScriptedModel, train_ngram
from dts.oracle import enumerate_tree


# not sequences of token ids: each iterates as characters, bytes or keys, or does not iterate
NOT_ID_SEQUENCES = ["", b"\x01", {0: 1}, {2: "x"}, 7, None]
NOT_ID_SEQUENCE_NAMES = ["string", "bytes", "dict", "dict-of-strings", "int", "none"]


class FixedRng:
    """Replays a scripted list of uniforms; counts draws like the real rng."""

    def __init__(self, values):
        self.values = list(values)
        self.draws = 0

    def uniform(self):
        value = self.values[self.draws]
        self.draws += 1
        return value


def row(provider, prompt, tokens):
    """The provider's distribution for one sequence: a batch of one."""
    return provider.next_distributions(tuple(prompt), [tuple(tokens)])[0]


class RecordingProvider(DistributionProvider):
    """Wraps a provider and remembers every distribution it served.

    ``calls`` counts rows, one per sequence asked for, not batches."""

    def __init__(self, inner):
        super().__init__(inner.vocab_size, inner.end_tokens, inner.vocab)
        self.inner = inner
        self.seen = {}
        self.calls = 0

    def next_distributions(self, prompt, sequences):
        prompt, sequences = tuple(prompt), [tuple(tokens) for tokens in sequences]
        dists = self.inner.next_distributions(prompt, sequences)
        self.calls += len(sequences)
        self.seen.update(zip([(prompt, tokens) for tokens in sequences], dists))
        return dists


def random_pfsa(seed, max_vocab=6, max_states=4, require_path_within=None):
    """Deterministic random PFSA; emissions are sparse so trees stay small.

    With ``require_path_within`` set, reroll (deterministically) until the
    automaton has a terminating path no longer than that depth.
    """
    attempt = 0
    while True:
        rnd = random.Random(f"pfsa:{seed}:{attempt}")
        vocab_size = rnd.randint(3, max_vocab)
        end = vocab_size - 1
        content = list(range(vocab_size - 1))
        n_states = rnd.randint(2, max_states)
        emissions = {}
        transitions = {}
        for state in range(n_states):
            support = rnd.sample(content, rnd.randint(1, min(3, len(content))))
            weights = {t: rnd.uniform(0.1, 1.0) for t in support}
            if state == n_states - 1 or rnd.random() < 0.4:
                weights[end] = rnd.uniform(0.1, 1.0)
            total = sum(weights.values())
            row = [0.0] * vocab_size
            for token, weight in weights.items():
                row[token] = weight / total
            emissions[state] = row
            transitions[state] = {t: rnd.randrange(n_states) for t in support}
        model = PfsaModel(
            initial_state=0, emissions=emissions, transitions=transitions, end_tokens=[end]
        )
        if require_path_within is None:
            return model
        if enumerate_tree(model, [], max_len=require_path_within, work_limit=200_000):
            return model
        attempt += 1


def random_ngram(seed) -> NGramModel:
    """Deterministic random smoothed n-gram model (full-support rows)."""
    rnd = random.Random(f"ngram:{seed}")
    high = rnd.randint(2, 5)
    corpus = [[0, 1, 2]]
    for _ in range(rnd.randint(2, 5)):
        corpus.append([rnd.randint(0, high) for _ in range(rnd.randint(4, 12))])
    return train_ngram(corpus, n=rnd.choice([1, 2, 3]), alpha=rnd.uniform(0.2, 2.0))


def one_hot_logits(vocab_size, *hot, scale=50.0):
    row = [0.0] * vocab_size
    for token in hot:
        row[token] = scale
    return row


def two_fork_scripted() -> ScriptedModel:
    """Scripted tree with exactly two high-entropy positions (K=2 fixture).

    Hand trace with tau=0.5, K=2, temperature 1, end token 5:
      step 0: certain 1                         -> [1]
      step 1: fork {2, 3}                       -> [1,2](id 0), [1,3](id 1)
      step 2: certain continuations             -> [1,2,4], [1,3,0]
      step 3: id 0 forks {0, 1}, id 1 certain   -> [1,2,4,0](id 0),
                                                   [1,3,0,2](id 1),
                                                   [1,2,4,1](id 2)
      step 4: id 0 reaches the end token        -> winner [1,2,4,0,5]
    Expect 2 branch events, peak frontier 3, 5 steps.
    """
    V = 6
    rules = [
        ([4, 1], one_hot_logits(V, 2)),
        ([4, 0], one_hot_logits(V, 5)),
        ([0, 2], one_hot_logits(V, 4)),
        ([2, 4], one_hot_logits(V, 0, 1)),
        ([3, 0], one_hot_logits(V, 2)),
        ([1, 2], one_hot_logits(V, 4)),
        ([1, 3], one_hot_logits(V, 0)),
        ([1], one_hot_logits(V, 2, 3)),
    ]
    return ScriptedModel(rules, one_hot_logits(V, 1), end_tokens=[5])

TWO_FORK_WINNER = (1, 2, 4, 0, 5)


def replay_steps(traces):
    """Reconstruct each traced branch's token prefix, step by step.

    Mirrors the engine's id allocation: traces are walked per step in
    ascending branch id, the first chosen token continues the same id, and
    later tokens claim fresh ids in order. Yields (step, [(trace, prefix)]).
    """
    by_step = defaultdict(list)
    for trace in traces:
        by_step[trace.step].append(trace)
    prefixes = {0: ()}
    next_id = 1
    for step in sorted(by_step):
        rows = sorted(by_step[step], key=lambda t: t.branch_id)
        yield step, [(t, prefixes[t.branch_id]) for t in rows]
        updated = {}
        for trace in rows:
            base = prefixes[trace.branch_id]
            updated[trace.branch_id] = base + (trace.chosen_tokens[0],)
            for token in trace.chosen_tokens[1:]:
                updated[next_id] = base + (token,)
                next_id += 1
        prefixes = updated


class CraftedHandler(BaseHTTPRequestHandler):
    """Serves a fixed meta payload and a crafted step payload, and keeps the
    JSON body of every step request in ``bodies``. A payload of ``bytes`` is
    sent as it is, any other as JSON."""

    meta: dict = {}
    step: dict = {}
    fail_first = 0
    bodies: list = []
    lock = threading.Lock()
    # the body would otherwise wait for the client's delayed ACK of the headers
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):
        pass

    def _send(self, payload, status=200):
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        self._send(type(self).meta)

    def do_POST(self):
        cls = type(self)
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with cls.lock:
            cls.bodies.append(body)
            if cls.fail_first > 0:
                cls.fail_first -= 1
                # drop the connection to simulate a transport fault
                self.connection.close()
                return
        self._send(cls.step)


def crafted_server(meta, step, fail_first=0):
    """A started server on 127.0.0.1 with its own ``CraftedHandler`` class,
    and its URL; the caller shuts it down."""
    handler = type(
        "Handler", (CraftedHandler,),
        {"meta": meta, "step": step, "fail_first": fail_first, "bodies": [], "lock": threading.Lock()},
    )
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    return server, f"http://{host}:{port}"
