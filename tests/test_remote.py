import math
import random
import socket
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from http.server import ThreadingHTTPServer

import numpy as np
import pytest

from dts import (
    DtsConfig,
    InvalidInputError,
    PfsaModel,
    ProtocolError,
    ProviderServer,
    RemoteProvider,
    ScriptedModel,
    TransportError,
    run_dts,
)

from support import CraftedHandler, crafted_server, random_pfsa


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
                    a = model.distribution((), tokens)
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
            for seed in range(4)
        ]
        summary = lambda r: (r.output.tokens, r.terminated, r.steps_executed, r.peak_frontier_size)
        serial = [summary(run_dts(model, [], cfg)) for cfg in configs]
        with ProviderServer(model) as server, ThreadPoolExecutor(max_workers=4) as pool:
            clients = [RemoteProvider(server.url) for _ in configs]
            concurrent = list(pool.map(lambda c, cfg: summary(run_dts(c, [], cfg)), clients, configs, timeout=60))
        assert concurrent == serial
        assert all(peak > 1 for _, _, _, peak in serial)

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
    ], ids=["distributions-a-number", "row-a-number", "row-without-values", "branch-id-not-a-number",
            "values-a-number", "values-not-numbers", "branch-id-a-numeric-string", "values-nan"])
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
