import http.client
import json
import logging
import math
import random
import socket
import statistics
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from http.server import ThreadingHTTPServer
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dts import (
    DtsConfig,
    DtsError,
    InvalidInputError,
    PfsaModel,
    ProtocolError,
    ProviderServer,
    RemoteProvider,
    ScriptedModel,
    TransportError,
    run_dts,
)
from dts.providers import server as server_module

from support import CraftedHandler, crafted_server, random_pfsa, row


@pytest.fixture(scope="module")
def pfsa():
    return PfsaModel(
        initial_state=0,
        emissions={0: [0.5, 0.3, 0.2, 0.0], 1: [0.25, 0.25, 0.0, 0.5]},
        transitions={0: {0: 1, 1: 0, 2: 1}, 1: {0: 0, 1: 1}},
        end_tokens=[3],
    )


class TestStubServerRoundTrip:
    def test_handshake(self, pfsa):
        with ProviderServer(pfsa, kind="logprobs") as server:
            remote = RemoteProvider(server.url)
            assert remote.vocab_size == 4
            assert remote.end_tokens == frozenset({3})
            assert remote.kind == "logprobs"

    def test_batch_order_and_values(self, pfsa):
        with ProviderServer(pfsa, kind="logprobs") as server:
            remote = RemoteProvider(server.url)
            sequences = [(), (0,), (1,)]
            local = pfsa.next_distributions((), sequences)
            over_wire = remote.next_distributions((), sequences)
            for a, b in zip(local, over_wire):
                assert np.allclose(a.probs, b.probs, atol=1e-12)

    def test_zero_probabilities_survive_the_wire(self, pfsa):
        with ProviderServer(pfsa, kind="logprobs") as server:
            remote = RemoteProvider(server.url)
            dist = remote.next_distributions((), [()])[0]
            assert dist.probs[3] == 0.0

    def test_logits_kind_matches_local_distribution(self, pfsa):
        # the server ships log-probabilities under either kind; the client's
        # softmax of them gives back the local distribution, zeros included
        scripted = ScriptedModel(
            rules=[([1], [3.0, 1.0, 0.5])],
            default_logits=[0.2, 0.1, 2.0],
            end_tokens=[2],
        )
        for model in (scripted, pfsa):
            with ProviderServer(model, kind="logits") as server:
                remote = RemoteProvider(server.url)
                assert remote.kind == "logits"
                for tokens in [(), (1,), (0, 1)]:
                    a = row(model, (), tokens)
                    b = remote.next_distributions((), [tokens])[0]
                    assert np.allclose(a.probs, b.probs, rtol=0.0, atol=1e-12)
                    assert np.array_equal(a.probs == 0.0, b.probs == 0.0)

    def test_remote_provider_refuses_a_temperature(self, pfsa):
        with ProviderServer(pfsa) as server:
            RemoteProvider(server.url, temperature=1.0)
            with pytest.raises(InvalidInputError, match="DtsConfig.temperature"):
                RemoteProvider(server.url, temperature=0.7)

    def test_remote_run_matches_local_run(self, pfsa):
        cfg = DtsConfig(
            tau=0.6, k=2, temperature=1.0, max_tokens=12, end_tokens=frozenset({3}), seed=5,
        )
        local = run_dts(pfsa, [], cfg)
        with ProviderServer(pfsa, kind="logprobs") as server:
            remote_result = run_dts(RemoteProvider(server.url), [], cfg)
        assert remote_result.output.tokens == local.output.tokens
        assert remote_result.terminated == local.terminated

    def test_concurrent_clients_match_serial_runs(self):
        # each client holds its own connection, so its own server thread
        model = PfsaModel(
            initial_state=0,
            emissions={0: [0.45, 0.35, 0.18, 0.02], 1: [0.3, 0.3, 0.38, 0.02], 2: [0.5, 0.2, 0.28, 0.02]},
            transitions={0: {0: 1, 1: 2, 2: 0}, 1: {0: 0, 1: 1, 2: 2}, 2: {0: 2, 1: 0, 2: 1}},
            end_tokens=[3],
        )
        configs = [
            DtsConfig(tau=0.9, k=2, temperature=1.0, max_tokens=16, end_tokens=frozenset({3}),
                      max_branches=8, seed=seed)
            for seed in range(16)
        ]
        summary = lambda r: (r.output.tokens, r.terminated, r.steps_executed, r.peak_frontier_size)
        serial = [summary(run_dts(model, [], cfg)) for cfg in configs]
        with ProviderServer(model) as server, ThreadPoolExecutor(max_workers=16) as pool:
            clients = [RemoteProvider(server.url) for _ in configs]
            concurrent = list(pool.map(lambda c, cfg: summary(run_dts(c, [], cfg)), clients, configs, timeout=60))
        assert concurrent == serial
        assert all(peak > 1 for _, _, _, peak in serial)

    def test_step_round_trip_is_not_stalled(self, pfsa):
        # a response held back by Nagle's algorithm waits out the client's delayed ACK,
        # a kernel timer of about 40 ms that no faster host shortens
        with ProviderServer(pfsa) as server:
            remote = RemoteProvider(server.url)
            times = []
            for _ in range(30):
                start = perf_counter()
                remote.next_distributions((), [(0,)])
                times.append(perf_counter() - start)
        assert statistics.median(times) < 0.015

    def test_expect_100_continue_answered_before_body(self, pfsa):
        # a buffered response writer would hold the interim answer until the final one
        body = json.dumps({"prompt": [], "sequences": [{"branch_id": 0, "tokens": []}]}).encode()
        with ProviderServer(pfsa) as server:
            host, port = server.server_address[:2]
            with socket.create_connection((host, port), timeout=1) as sock:
                reader = sock.makefile("rb")
                sock.sendall(
                    f"POST /v1/distribution HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n"
                    f"Expect: 100-continue\r\nContent-Length: {len(body)}\r\n\r\n".encode()
                )
                assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
                assert reader.readline() == b"\r\n"
                sock.sendall(body)
                assert reader.read().split()[1] == b"200"

    def test_requests_logged_at_debug(self, pfsa, caplog):
        caplog.set_level(logging.DEBUG, logger=server_module.__name__)
        with ProviderServer(pfsa) as server:
            RemoteProvider(server.url)
        assert any(
            r.getMessage().startswith("127.0.0.1:") and '"GET /v1/meta HTTP/1.1" 200' in r.getMessage()
            for r in caplog.records
        )

    def test_unknown_path_is_transport_error(self, pfsa):
        with ProviderServer(pfsa) as server:
            remote = RemoteProvider(server.url)
            with pytest.raises(TransportError):
                remote._request("GET", "/v1/nonsense")


META = {"vocab_size": 2, "end_tokens": [1], "kind": "logprobs"}
HALF = [math.log(0.5), math.log(0.5)]


class TestProtocolValidation:
    def run_step(self, meta, step, fail_first=0, **kwargs):
        server, url = crafted_server(meta, step, fail_first)
        try:
            remote = RemoteProvider(url, **kwargs)
            return remote.next_distributions((), [()])
        finally:
            server.shutdown()
            server.server_close()

    def test_logprobs_converted(self):
        step = {"distributions": [{"branch_id": 0, "values": HALF}]}
        dist = self.run_step(META, step)[0]
        assert np.allclose(dist.probs, [0.5, 0.5], atol=1e-12)

    def test_slightly_off_sum_renormalized(self):
        step = {"distributions": [{"branch_id": 0, "values": [math.log(0.4995), math.log(0.4995)]}]}
        dist = self.run_step(META, step)[0]
        assert float(dist.probs.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_badly_off_sum_rejected(self):
        step = {"distributions": [{"branch_id": 0, "values": [math.log(0.3), math.log(0.3)]}]}
        with pytest.raises(ProtocolError, match="sums to"):
            self.run_step(META, step)

    def test_wrong_vocab_size_rejected(self):
        step = {"distributions": [{"branch_id": 0, "values": [0.0]}]}
        with pytest.raises(ProtocolError, match="vocab_size"):
            self.run_step(META, step)

    def test_order_mismatch_rejected(self):
        step = {"distributions": [{"branch_id": 9, "values": HALF}]}
        with pytest.raises(ProtocolError, match="order"):
            self.run_step(META, step)

    @pytest.mark.parametrize("step", [
        {"distributions": 5},
        {"distributions": [5]},
        {"distributions": [{"branch_id": 0}]},
        {"distributions": [{"branch_id": "x", "values": HALF}]},
        {"distributions": [{"branch_id": 0, "values": 5}]},
        {"distributions": [{"branch_id": 0, "values": ["a", "b"]}]},
        {"distributions": [{"branch_id": "0", "values": HALF}]},
        {"distributions": [{"branch_id": 0, "values": [math.nan, 0.0]}]},
        # numpy would read these values as [1, 0], and false equals position 0
        {"distributions": [{"branch_id": 0, "values": [False, -1e9]}]},
        {"distributions": [{"branch_id": 0, "values": ["0", "-1e9"]}]},
        {"distributions": [{"branch_id": False, "values": HALF}]},
    ], ids=["distributions-a-number", "row-a-number", "row-without-values", "branch-id-not-a-number",
            "values-a-number", "values-not-numbers", "branch-id-a-numeric-string", "values-nan",
            "values-bools", "values-numeric-strings", "branch-id-false"])
    def test_malformed_step_payload_is_protocol_error(self, step):
        with pytest.raises(ProtocolError):
            self.run_step(META, step)

    def test_request_holds_positions_and_tokens_only(self):
        sequences = [(), (0,), (1, 0)]
        step = {"distributions": [{"branch_id": i, "values": HALF} for i in range(3)]}
        server, url = crafted_server(META, step)
        try:
            RemoteProvider(url).next_distributions((1,), sequences)
        finally:
            server.shutdown()
            server.server_close()
        assert server.RequestHandlerClass.bodies == [{
            "prompt": [1],
            "sequences": [{"branch_id": 0, "tokens": []}, {"branch_id": 1, "tokens": [0]},
                          {"branch_id": 2, "tokens": [1, 0]}],
        }]

    def test_wrong_count_rejected(self):
        step = {"distributions": []}
        with pytest.raises(ProtocolError, match="0 distributions"):
            self.run_step(META, step)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="kind"):
            self.run_step({**META, "kind": "probits"}, {})

    def test_malformed_handshake_rejected(self):
        with pytest.raises(ProtocolError, match="handshake"):
            self.run_step({"vocab_size": 2}, {})

    @pytest.mark.parametrize("change", [
        {"vocab_size": "64"},
        {"end_tokens": [1.5]},
        {"end_tokens": []},
        {"end_tokens": 1},
    ], ids=["string-vocab-size", "float-end-token", "no-end-token", "scalar-end-tokens"])
    def test_bad_handshake_vocabulary_refused(self, change):
        with pytest.raises(ProtocolError, match="handshake"):
            self.run_step({**META, **change}, {})

    def test_transient_drops_retried_with_attempt_count(self):
        step = {"distributions": [{"branch_id": 0, "values": HALF}]}
        dist = self.run_step(META, step, fail_first=2, timeout=2.0)[0]
        assert np.allclose(dist.probs, [0.5, 0.5], atol=1e-12)

    def test_exhausted_retries_report_attempts(self):
        step = {"distributions": [{"branch_id": 0, "values": HALF}]}
        with pytest.raises(TransportError) as excinfo:
            self.run_step(META, step, fail_first=50, timeout=0.5)
        assert excinfo.value.attempts == 3

    def test_http_error_is_transport_error(self, pfsa):
        class ErrorHandler(CraftedHandler):
            def do_POST(self):
                self._send({"error": "teapot"}, status=500)

        server = ThreadingHTTPServer(("127.0.0.1", 0), ErrorHandler)
        ErrorHandler.meta = META
        threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True).start()
        host, port = server.server_address[:2]
        try:
            remote = RemoteProvider(f"http://{host}:{port}")
            with pytest.raises(TransportError, match="500"):
                remote.next_distributions((), [()])
        finally:
            server.shutdown()
            server.server_close()


class TestServerSideValidation:
    def test_bad_request_rejected_with_400(self, pfsa):
        import requests

        with ProviderServer(pfsa) as server:
            response = requests.post(
                server.url + "/v1/distribution", json={"prompt": "nope"}, timeout=5
            )
            assert response.status_code == 400

    @pytest.mark.parametrize(
        "change",
        [
            {"tokens": [-1]},
            {"tokens": [7]},
            {"tokens": [1.5]},
            {"tokens": ["1"]},
            {"tokens": [True]},
            {"prompt": [3]},
            {"branch_id": -1},
            {"branch_id": "0"},
            {"branch_id": True},
        ],
        ids=[
            "negative", "beyond-vocab", "float", "string", "bool", "prompt-beyond-vocab",
            "negative-branch-id", "string-branch-id", "bool-branch-id",
        ],
    )
    def test_bad_ids_rejected_with_400(self, change):
        import requests

        three_tokens = PfsaModel(0, {0: [0.5, 0.3, 0.2]}, {0: {0: 0, 1: 0}}, end_tokens=[2])
        sequence = {"branch_id": 0, "tokens": [0], "parent_branch_id": None, "fork_step": None}
        request = {"prompt": [], "sequences": [sequence]}
        with ProviderServer(three_tokens) as server:
            url = server.url + "/v1/distribution"
            assert requests.post(url, json=request, timeout=5).status_code == 200
            for key, value in change.items():
                (request if key == "prompt" else sequence)[key] = value
            assert requests.post(url, json=request, timeout=5).status_code == 400

    @pytest.mark.parametrize(
        "length,status",
        [("-1", 400), ("100000000", 413), ("x", 400), (None, 400)],
        ids=["negative", "over-cap", "non-integer", "missing"],
    )
    def test_bad_content_length_answered_unread(self, pfsa, length, status):
        # no body follows the headers: a server that tries to read one never answers
        header = "" if length is None else f"Content-Length: {length}\r\n"
        with ProviderServer(pfsa) as server:
            host, port = server.server_address[:2]
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(f"POST /v1/distribution HTTP/1.1\r\nHost: {host}\r\n{header}\r\n".encode())
                status_line = sock.makefile("rb").readline()
        assert status_line.split()[1] == str(status).encode()

    @pytest.mark.parametrize("tokens", [[3, 0], [0, 2]], ids=["past-end-token", "no-transition"])
    def test_tokens_the_provider_rejects_answered_with_400(self, pfsa, tokens):
        import requests

        with ProviderServer(pfsa) as server, requests.Session() as session:
            url = server.url + "/v1/distribution"
            bad = session.post(url, json={"prompt": [], "sequences": [{"branch_id": 0, "tokens": tokens}]}, timeout=5)
            assert bad.status_code == 400
            assert "no transition" in bad.json()["error"]
            good = session.post(url, json={"prompt": [], "sequences": [{"branch_id": 0, "tokens": [0]}]}, timeout=5)
            assert good.status_code == 200

    @pytest.mark.parametrize(
        "request_",
        [
            {"prompt": "", "sequences": [{"branch_id": 0, "tokens": [0]}]},
            {"prompt": [], "sequences": {}},
            {"prompt": [], "sequences": [{"branch_id": 0, "tokens": ""}]},
            {"prompt": [], "sequences": [{"branch_id": 0, "tokens": {}}]},
        ],
        ids=["string-prompt", "object-sequences", "string-tokens", "object-tokens"],
    )
    def test_non_list_ids_rejected_with_400(self, pfsa, request_):
        import requests

        # each of these iterates as no ids at all
        with ProviderServer(pfsa) as server:
            assert requests.post(server.url + "/v1/distribution", json=request_, timeout=5).status_code == 400

    def test_values_cap_answered_with_413(self, monkeypatch):
        monkeypatch.setattr(server_module, "_MAX_VALUES", 8)
        three_tokens = PfsaModel(0, {0: [0.5, 0.3, 0.2]}, {0: {0: 0, 1: 0}}, end_tokens=[2])

        def post(conn, n):
            sequences = [{"branch_id": i, "tokens": [0]} for i in range(n)]
            conn.request("POST", "/v1/distribution", json.dumps({"prompt": [], "sequences": sequences}),
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            response.read()
            return response.status

        with ProviderServer(three_tokens) as server:
            conn = http.client.HTTPConnection(*server.server_address[:2], timeout=5)
            try:
                assert post(conn, 3) == 413
                sock = conn.sock
                assert post(conn, 2) == 200
                # the refused body was read, so the same connection served the next request
                assert sock is not None and conn.sock is sock
            finally:
                conn.close()

    def test_values_cap_checked_before_tokens_are_parsed(self):
        import requests

        # 129 rows at V=65536 is just over the cap; a bad token in the last row
        # would only be found after every row before it had been parsed
        wide = ScriptedModel([], [0.0] * 65536)
        sequences = [{"branch_id": i, "tokens": [0]} for i in range(128)] + [{"branch_id": 128, "tokens": [0, "x"]}]
        with ProviderServer(wide) as server:
            response = requests.post(server.url + "/v1/distribution",
                                     json={"prompt": [], "sequences": sequences}, timeout=5)
        assert response.status_code == 413

    def test_long_walks_leave_little_memory(self):
        model = PfsaModel(0, {0: [0.4, 0.4, 0.2]}, {0: {0: 0, 1: 0}}, end_tokens=[2])
        rnd = random.Random(0)
        sequences = [tuple(rnd.choice((0, 1)) for _ in range(4000)) for _ in range(8)]
        server = ProviderServer(model)
        try:
            tracemalloc.start()
            try:
                server.values_for((), sequences)
                retained, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        finally:
            server.server_close()
        # a cache of every prefix would hold 32000 tuples, about 500 MB
        assert retained < 5 * 2**20

    def test_many_sequential_calls(self):
        model = random_pfsa(3, require_path_within=6)
        with ProviderServer(model, kind="logprobs") as server:
            remote = RemoteProvider(server.url)
            for i in range(50):
                dist = remote.next_distributions((), [()])[0]
                assert abs(float(dist.probs.sum()) - 1.0) < 1e-9


class _CountingServer(ProviderServer):
    """Counts the connections it accepts."""

    connections = 0

    def process_request(self, request, client_address):
        self.connections += 1
        super().process_request(request, client_address)


# walks the ``pfsa`` fixture accepts: no end token, and state 1 has no move on token 2
_VALID_SEQUENCES = [(), (0,), (1, 1), (2, 0, 1)]
_FUZZ_MAX_VALUES = 64


@pytest.fixture(scope="module")
def fuzzed(pfsa):
    import requests

    with pytest.MonkeyPatch.context() as patch:
        # 17 sequences at V=4 are over the cap, so a fuzzed body can reach the 413
        patch.setattr(server_module, "_MAX_VALUES", _FUZZ_MAX_VALUES)
        with _CountingServer(pfsa) as server, requests.Session() as session:
            yield server, session, RemoteProvider(server.url, session=session)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    # keys of at most 5 characters are never "prompt", "sequences", "tokens" or "branch_id"
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
_not_lists = _json_values.filter(lambda v: type(v) is not list)
_bad_ids = st.one_of(
    st.integers(max_value=-1), st.integers(min_value=4), st.booleans(), st.floats(), st.text(max_size=2), st.none(),
)


@st.composite
def _malformed_bodies(draw):
    """A request body the server must refuse with 400 or 413."""
    kind = draw(st.sampled_from(["bytes", "not-a-request", "missing-key", "wrong-type", "bad-id",
                                 "rejected-walk", "over-cap"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    if kind == "not-a-request":
        return json.dumps(draw(_json_values)).encode()
    walks = draw(st.lists(st.sampled_from(_VALID_SEQUENCES), min_size=1, max_size=4))
    sequences = [{"branch_id": i, "tokens": list(tokens)} for i, tokens in enumerate(walks)]
    request = {"prompt": draw(st.lists(st.integers(0, 3), max_size=3)), "sequences": sequences}
    sequence = draw(st.sampled_from(sequences))
    if kind == "missing-key":
        key = draw(st.sampled_from(["prompt", "sequences", "tokens", "branch_id"]))
        del (request if key in request else sequence)[key]
    elif kind == "wrong-type":
        key = draw(st.sampled_from(["prompt", "sequences", "tokens", "branch_id", "sequence"]))
        if key == "branch_id":
            sequence[key] = draw(_json_values.filter(lambda v: type(v) is not int or v < 0))
        elif key == "sequence":
            sequences[sequences.index(sequence)] = draw(_json_values.filter(lambda v: type(v) is not dict))
        else:
            (request if key in request else sequence)[key] = draw(_not_lists)
    elif kind == "bad-id":
        ids = draw(st.sampled_from([request["prompt"], sequence["tokens"]]))
        ids.insert(draw(st.integers(0, len(ids))), draw(_bad_ids))
    elif kind == "rejected-walk":
        # the end token has no transition, wherever it stands
        sequence["tokens"].insert(draw(st.integers(0, len(sequence["tokens"]))), 3)
    else:
        request["sequences"] = sequences * (_FUZZ_MAX_VALUES // 4 // len(sequences) + 1)
    return json.dumps(request).encode()


@given(body=_malformed_bodies())
@settings(max_examples=200, deadline=None)
def test_fuzzed_bodies_refused_on_a_live_connection(fuzzed, body):
    server, session, remote = fuzzed
    response = session.post(server.url + "/v1/distribution", data=body,
                            headers={"Content-Type": "application/json"}, timeout=5)
    assert response.status_code in (400, 413), response.text
    # the next step on the same connection is served as if nothing had happened
    for local, over_wire in zip(server.provider.next_distributions((), _VALID_SEQUENCES),
                                remote.next_distributions((), _VALID_SEQUENCES)):
        assert np.allclose(local.probs, over_wire.probs, rtol=0.0, atol=1e-12)
        assert np.array_equal(local.probs == 0.0, over_wire.probs == 0.0)
    assert server.connections == 1


_CLIENT_META = {"vocab_size": 4, "end_tokens": [3], "kind": "logprobs"}
_CLIENT_SEQUENCES = [(), (0,)]
_ROWS = {"logits": [0.0] * 4, "logprobs": [math.log(0.25)] * 4}
# numpy reads a bool or a numeric string as a number, so both are drawn often
_not_numbers = st.one_of(st.booleans(), st.sampled_from(["0", "-1e9", math.nan, math.inf, None]),
                         _json_values.filter(lambda v: type(v) not in (int, float)))
# a JSON false, true or float equals the positions 0 and 1 too
_not_positions = st.sampled_from([False, True, 0.0, 1.0]) | _json_values.filter(lambda v: type(v) is not int)


@pytest.fixture(scope="module")
def crafted():
    server, url = crafted_server(_CLIENT_META, {})
    yield server.RequestHandlerClass, url
    server.shutdown()
    server.server_close()


def _step_body(kind):
    return {"distributions": [{"branch_id": i, "values": list(_ROWS[kind])} for i in range(len(_CLIENT_SEQUENCES))]}


@st.composite
def _malformed_handshakes(draw):
    """A ``/v1/meta`` body the client must refuse; 32 random bytes are too few for a valid one."""
    kind = draw(st.sampled_from(["bytes", "not-a-handshake", "missing-key", "vocab-size", "end-tokens",
                                 "bad-end-token", "kind"]))
    if kind == "bytes":
        return draw(st.binary(max_size=32))
    if kind == "not-a-handshake":
        return json.dumps(draw(_json_values)).encode()
    meta = dict(_CLIENT_META, kind=draw(st.sampled_from(["logits", "logprobs"])), end_tokens=[3])
    if kind == "missing-key":
        del meta[draw(st.sampled_from(sorted(meta)))]
    elif kind == "vocab-size":
        # the end token 3 needs at least 4 ids
        meta["vocab_size"] = draw(_json_values.filter(lambda v: type(v) is not int or v < 4))
    elif kind == "end-tokens":
        meta["end_tokens"] = draw(_not_lists)
    elif kind == "bad-end-token":
        meta["end_tokens"].insert(draw(st.integers(0, 1)), draw(_bad_ids))
    else:
        meta["kind"] = draw(_json_values.filter(lambda v: v not in ("logits", "logprobs")))
    return json.dumps(meta).encode()


@st.composite
def _malformed_steps(draw):
    """A payload kind and a ``/v1/distribution`` body the client must refuse."""
    payload_kind = draw(st.sampled_from(["logits", "logprobs"]))
    kind = draw(st.sampled_from(["bytes", "not-a-step", "missing-key", "wrong-type", "bad-value", "wrong-length",
                                 "wrong-count", "swapped", "bad-sum"]))
    if kind == "bytes":
        return payload_kind, draw(st.binary(max_size=32))
    if kind == "not-a-step":
        return payload_kind, json.dumps(draw(_json_values)).encode()
    body = _step_body(payload_kind)
    rows = body["distributions"]
    i = draw(st.integers(0, len(rows) - 1))
    if kind == "missing-key":
        key = draw(st.sampled_from(["distributions", "branch_id", "values"]))
        del (body if key == "distributions" else rows[i])[key]
    elif kind == "wrong-type":
        key = draw(st.sampled_from(["distributions", "row", "branch_id", "values"]))
        if key == "distributions":
            body[key] = draw(_not_lists)
        elif key == "row":
            rows[i] = draw(_json_values.filter(lambda v: type(v) is not dict))
        elif key == "branch_id":
            rows[i][key] = draw(_not_positions | st.integers().filter(lambda v: v != i))
        else:
            rows[i][key] = draw(_not_lists)
    elif kind == "bad-value":
        rows[i]["values"][draw(st.integers(0, 3))] = draw(_not_numbers)
    elif kind == "wrong-length":
        rows[i]["values"] = draw(st.lists(st.floats(-5.0, 0.0), max_size=6).filter(lambda v: len(v) != 4))
    elif kind == "wrong-count":
        body["distributions"] = draw(st.sampled_from([[], rows[:1], rows + rows[:1]]))
    elif kind == "swapped":
        rows.reverse()
    else:
        # four log-probabilities of 0: the probabilities sum to 4
        payload_kind = "logprobs"
        rows[i]["values"] = [0.0] * 4
    return payload_kind, json.dumps(body).encode()


@pytest.mark.parametrize("payload_kind", ["logits", "logprobs"])
def test_unmutated_fuzz_bodies_are_accepted(crafted, payload_kind):
    import requests

    handler, url = crafted
    handler.meta, handler.step = dict(_CLIENT_META, kind=payload_kind), _step_body(payload_kind)
    with requests.Session() as session:
        rows = RemoteProvider(url, session=session).next_distributions((), _CLIENT_SEQUENCES)
    assert [row.probs.tolist() for row in rows] == [[0.25] * 4] * 2


@given(meta=_malformed_handshakes())
@settings(max_examples=150, deadline=None)
def test_fuzzed_handshakes_raise_dts_errors(crafted, meta):
    import requests

    handler, url = crafted
    handler.meta = meta
    with requests.Session() as session, pytest.raises(DtsError):
        RemoteProvider(url, session=session)


@given(case=_malformed_steps())
@settings(max_examples=200, deadline=None)
def test_fuzzed_step_bodies_raise_dts_errors(crafted, case):
    import requests

    payload_kind, body = case
    handler, url = crafted
    handler.meta, handler.step = dict(_CLIENT_META, kind=payload_kind), body
    with requests.Session() as session:
        remote = RemoteProvider(url, session=session)
        with pytest.raises(DtsError):
            remote.next_distributions((), _CLIENT_SEQUENCES)
