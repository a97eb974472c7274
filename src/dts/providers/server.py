"""Reference stub server exposing any local provider over the wire protocol.

Meant for protocol conformance testing and for driving the engine against a
provider running in another process. Rows are shipped as log-probabilities
under either ``kind``; zero-probability entries as the sentinel logprob -1e9,
which exponentiates back to exactly 0.0, keeping payloads valid strict JSON.
"""

from __future__ import annotations

import json
import logging
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..core import InvalidInputError, token_ids
from .base import DistributionProvider

_NEG_INF_SENTINEL = -1e9
# a step request at B=32, L=4096 with five-digit ids is about 1 MB; larger bodies are refused unread
_MAX_BODY_BYTES = 64 * 2**20
# B=32 at a ~152k vocabulary is 4.9M values; a step that asks for more is refused before the provider runs
_MAX_VALUES = 2**23

_log = logging.getLogger(__name__)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # headers and body are two writes; with Nagle's algorithm the body waits for
    # the client's delayed ACK of the headers, about 40 ms per response. The writer
    # stays unbuffered: a buffered one would hold an interim "100 Continue" back
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):
        _log.debug("%s:%d " + fmt, *self.client_address[:2], *args)

    def _send_json(self, payload, status=200):
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path != "/v1/meta":
            self._send_json({"error": f"unknown path {self.path}"}, status=404)
            return
        provider = self.server.provider
        self._send_json(
            {
                "vocab_size": provider.vocab_size,
                "end_tokens": sorted(provider.end_tokens),
                "kind": self.server.kind,
            }
        )

    def do_POST(self):
        if self.path != "/v1/distribution":
            self._send_json({"error": f"unknown path {self.path}"}, status=404)
            return
        try:
            length = int(self.headers["Content-Length"])
        except (TypeError, ValueError):
            length = -1
        # the body is left unread, so the connection cannot carry another request
        if length < 0:
            self.close_connection = True
            self._send_json({"error": "bad request: Content-Length must be an integer >= 0"}, status=400)
            return
        if length > _MAX_BODY_BYTES:
            self.close_connection = True
            self._send_json({"error": f"request body over {_MAX_BODY_BYTES} bytes"}, status=413)
            return
        try:
            request = json.loads(self.rfile.read(length))
            vocab_size = self.server.provider.vocab_size
            # an object would count as no sequences at all
            if type(request["sequences"]) is not list:
                raise InvalidInputError("sequences must be a list")
            # counted before any token is parsed, so an oversized step is refused at once
            oversized = len(request["sequences"]) * vocab_size > _MAX_VALUES
            if not oversized:
                prompt = token_ids(request["prompt"], vocab_size)
                # other keys of a sequence, such as an older client's lineage fields, are ignored
                sequences = [token_ids(seq["tokens"], vocab_size) for seq in request["sequences"]]
                branch_ids = [seq["branch_id"] for seq in request["sequences"]]
                if any(type(i) is not int or i < 0 for i in branch_ids):
                    raise InvalidInputError("branch_id must be a non-negative integer")
        except Exception as exc:
            self._send_json({"error": f"bad request: {exc}"}, status=400)
            return
        if oversized:
            self._send_json({"error": f"request asks for over {_MAX_VALUES} values"}, status=413)
            return
        try:
            rows = self.server.values_for(prompt, sequences)
        except InvalidInputError as exc:
            # the provider rejects the tokens, such as a sequence that goes on past an end token
            self._send_json({"error": f"bad request: {exc}"}, status=400)
            return
        except Exception as exc:
            self._send_json({"error": f"provider failure: {exc}"}, status=500)
            return
        self._send_json(
            {
                "distributions": [
                    {"branch_id": i, "values": values} for i, values in zip(branch_ids, rows)
                ]
            }
        )


class ProviderServer(ThreadingHTTPServer):
    """Serves a DistributionProvider on 127.0.0.1; use as a context manager."""

    daemon_threads = True

    def __init__(self, provider: DistributionProvider, kind: str = "logprobs",
                 host: str = "127.0.0.1", port: int = 0):
        if kind not in ("logits", "logprobs"):
            raise ValueError(f"unsupported kind {kind!r}")
        super().__init__((host, port), _Handler)
        self.provider = provider
        self.kind = kind
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def values_for(self, prompt, sequences) -> list[list[float]]:
        rows = self.provider.next_distributions(prompt, sequences)
        return [
            [math.log(p) if p > 0.0 else _NEG_INF_SENTINEL for p in map(float, dist.probs)]
            for dist in rows
        ]

    def start(self):
        self._thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self

    def stop(self):
        self.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.server_close()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info):
        self.stop()
