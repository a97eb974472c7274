"""HTTP client for a remote log-probability backend.

Wire protocol (JSON over HTTP):

  GET  /v1/meta          -> {"vocab_size": int, "end_tokens": [int...],
                             "kind": "logits" | "logprobs", "vocab": [str...]}
  POST /v1/distribution  <- {"prompt": [int...],
                             "sequences": [{"branch_id": int, "tokens": [...]}, ...]}
                         -> {"distributions": [{"branch_id": int,
                                                "values": [float; vocab_size]}, ...]}

Only a provider with words sends "vocab". A sequence's branch_id is its
position in the request; the response must echo them in request order.
"logits" values are converted with a softmax; "logprobs" are exponentiated,
validated to sum to 1 within 5e-3, and renormalized. A response of any
other shape raises ProtocolError.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import requests

from ..branching import softmax
from ..core import InvalidInputError, ProtocolError, TokenDistribution, TokenId, TransportError, json_numbers
from .base import DistributionProvider

# acceptance window for raw logprob payload sums; 0.999 must renormalize
# cleanly while grossly unnormalized payloads still fail the contract
_SUM_TOL = 5e-3
_MAX_ATTEMPTS = 3


class RemoteProvider(DistributionProvider):
    def __init__(
        self,
        endpoint: str,
        temperature: float = 1.0,
        timeout: float = 120.0,
        session: requests.Session | None = None,
    ):
        if temperature != 1.0:
            raise InvalidInputError(f"temperature {temperature}: set DtsConfig.temperature instead")
        self.endpoint = endpoint.rstrip("/")
        self.timeout = float(timeout)
        self.session = session or requests.Session()

        meta = self._request("GET", "/v1/meta")
        try:
            super().__init__(meta["vocab_size"], meta["end_tokens"], meta.get("vocab"))
            self.kind = meta["kind"]
        except (KeyError, TypeError, InvalidInputError) as exc:
            raise ProtocolError(f"malformed handshake payload: {meta!r}") from exc
        if self.kind not in ("logits", "logprobs"):
            raise ProtocolError(f"unknown payload kind {self.kind!r}")

    def _request(self, method: str, path: str, payload=None):
        url = self.endpoint + path
        last_exc: Exception | None = None
        for attempt in range(1, _MAX_ATTEMPTS + 1):
            try:
                response = self.session.request(method, url, json=payload, timeout=self.timeout)
            except (requests.Timeout, requests.ConnectionError) as exc:
                last_exc = exc
                continue
            if response.status_code != 200:
                raise TransportError(
                    f"{method} {url} returned HTTP {response.status_code}", attempts=attempt
                )
            try:
                return response.json()
            except ValueError as exc:
                raise ProtocolError(f"{method} {url} returned non-JSON body") from exc
        raise TransportError(
            f"{method} {url} failed after {_MAX_ATTEMPTS} attempts: {last_exc}",
            attempts=_MAX_ATTEMPTS,
        )

    def _to_distribution(self, values) -> TokenDistribution:
        if len(values) != self.vocab_size:
            raise ProtocolError(
                f"server sent {len(values)} values, expected vocab_size {self.vocab_size}"
            )
        # numpy would read a JSON true as 1.0 and a string "0.5" as 0.5
        json_numbers(values)
        if self.kind == "logits":
            return softmax(values)
        probs = np.exp(np.asarray(values, dtype=np.float64))
        total = float(probs.sum())
        if abs(total - 1.0) > _SUM_TOL:
            raise ProtocolError(f"logprob payload sums to {total}, outside 1 +/- {_SUM_TOL}")
        return TokenDistribution(probs / total)

    def next_distributions(
        self, prompt: Sequence[TokenId], sequences: Sequence[tuple[TokenId, ...]]
    ) -> list[TokenDistribution]:
        payload = {
            "prompt": list(prompt),
            "sequences": [{"branch_id": i, "tokens": list(tokens)} for i, tokens in enumerate(sequences)],
        }
        body = self._request("POST", "/v1/distribution", payload)
        try:
            rows = body["distributions"]
            if len(rows) != len(sequences):
                raise ProtocolError(f"server sent {len(rows)} distributions for {len(sequences)} sequences")
            out = []
            for i, row in enumerate(rows):
                # a JSON false or 0.0 equals 0 too
                if type(row["branch_id"]) is not int or row["branch_id"] != i:
                    raise ProtocolError("response order does not match request order")
                out.append(self._to_distribution(row["values"]))
        except (AttributeError, KeyError, TypeError, ValueError, InvalidInputError) as exc:
            raise ProtocolError(f"malformed step payload ({type(exc).__name__}: {exc})") from None
        return out
