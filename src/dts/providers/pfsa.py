"""Deterministic probabilistic finite-state automaton provider.

Each state carries an emission distribution over the vocabulary, end token
included, and a transition function on emitted tokens. Because the automaton
is deterministic, the probability of any complete sequence is the plain
product of its per-step emissions, which makes PFSA instances exactly
analyzable and the natural fixture for oracle comparisons.

The prompt is accepted and ignored: the state is driven by the generated
tokens alone. Each thread keeps the states of its last query only: a sequence
one token past one of them takes one transition; any other is walked afresh.
"""

from __future__ import annotations

import threading
from typing import Hashable, Optional, Sequence

from ..core import InvalidInputError, TokenDistribution, TokenId
from .base import DistributionProvider, read_model_file

State = Hashable
_EMISSION_SUM_TOL = 1e-9
_UNSEEN = object()


class PfsaModel(DistributionProvider):
    def __init__(
        self,
        initial_state: State,
        emissions: dict[State, Sequence[float]],
        transitions: dict[State, dict[TokenId, State]],
        end_tokens: Sequence[TokenId],
        vocab: Optional[Sequence[str]] = None,
    ):
        if initial_state not in emissions:
            raise InvalidInputError("initial state has no emission distribution")
        sizes = {len(row) for row in emissions.values()}
        if len(sizes) != 1:
            raise InvalidInputError("all emission rows must have the same length")
        super().__init__(sizes.pop(), end_tokens, vocab)

        self.initial_state = initial_state
        self.transitions = {s: dict(t) for s, t in transitions.items()}
        self.emissions: dict[State, TokenDistribution] = {}
        for state, row in emissions.items():
            dist = TokenDistribution(row)
            if abs(float(dist.probs.sum()) - 1.0) > _EMISSION_SUM_TOL:
                raise InvalidInputError(f"emissions of state {state!r} do not sum to 1")
            self.emissions[state] = dist
            for token in range(self.vocab_size):
                if float(dist.probs[token]) > 0.0 and token not in self.end_tokens:
                    target = self.transitions.get(state, {}).get(token)
                    if target is None:
                        raise InvalidInputError(
                            f"state {state!r} emits token {token} but has no transition for it"
                        )
                    if target not in emissions:
                        raise InvalidInputError(
                            f"transition from {state!r} on {token} leads to unknown state {target!r}"
                        )
        self._last_query = threading.local()

    def next_distributions(self, prompt, sequences) -> list[TokenDistribution]:
        last = getattr(self._last_query, "states", {})
        states = self._last_query.states = {}
        dists = []
        for tokens in map(tuple, sequences):
            state = last.get(tokens[:-1], _UNSEEN)
            state, walk = (self.initial_state, tokens) if state is _UNSEEN else (state, tokens[-1:])
            for token in walk:
                try:
                    state = self.transitions[state][token]
                except KeyError:
                    raise InvalidInputError(f"no transition from state {state!r} on token {token}") from None
            states[tokens] = state
            dists.append(self.emissions[state])
        return dists

    def distribution(self, prompt, tokens) -> TokenDistribution:
        return self.next_distributions(prompt, [tokens])[0]

    def sequence_probability(self, tokens: Sequence[TokenId]) -> float:
        """Product of per-step emission probabilities along the sequence."""
        prob = 1.0
        state = self.initial_state
        for i, token in enumerate(tokens):
            prob *= float(self.emissions[state].probs[token])
            if token in self.end_tokens:
                if i != len(tokens) - 1:
                    raise InvalidInputError("end token occurs before the end of the sequence")
                return prob
            state = self.transitions[state][token]
        return prob

    @classmethod
    def from_file(cls, path: str) -> "PfsaModel":
        """Load the JSON form documented in the README.

        {"initial_state": ..., "end_tokens": [...], "vocab": [...]?,
         "states": {name: {"emissions": [...], "transitions": {token: name}}}}
        """
        return read_model_file(path, cls._from_json)

    @classmethod
    def _from_json(cls, data) -> "PfsaModel":
        states = data["states"]
        return cls(
            initial_state=data["initial_state"],
            emissions={name: spec["emissions"] for name, spec in states.items()},
            transitions={
                name: {int(key): s for key, s in spec.get("transitions", {}).items()}
                for name, spec in states.items()
            },
            end_tokens=data["end_tokens"],
            vocab=data.get("vocab"),
        )
