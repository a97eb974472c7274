"""Scripted provider: an ordered table of suffix-pattern rules over logits.

The exact-test fixture. Each rule maps a context suffix to a logit vector;
the first rule whose suffix matches the end of prompt + generated tokens
wins, and a default vector applies when none match. Logits pass through
temperature-scaled softmax, so entropy at each scripted position is fully
under the test author's control.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from ..branching import softmax_with_temperature
from ..core import InvalidInputError, TokenDistribution, TokenId, token_ids
from .base import DistributionProvider


class ScriptedModel(DistributionProvider):
    def __init__(
        self,
        rules: Sequence[tuple[Sequence[TokenId], Sequence[float]]],
        default_logits: Sequence[float],
        temperature: float = 1.0,
        end_tokens: Optional[Sequence[TokenId]] = None,
        vocab: Optional[Sequence[str]] = None,
    ):
        self.default_logits = tuple(float(x) for x in default_logits)
        self.vocab_size = len(self.default_logits)
        self.rules = tuple(
            (token_ids(suffix, self.vocab_size), tuple(float(x) for x in logits))
            for suffix, logits in rules
        )
        for suffix, logits in self.rules:
            if len(logits) != self.vocab_size:
                raise InvalidInputError("every rule must provide one logit per vocabulary token")
        self.temperature = float(temperature)
        if end_tokens is None:
            end_tokens = [self.vocab_size - 1]
        self.end_tokens = frozenset(int(t) for t in end_tokens)
        self.vocab = tuple(vocab) if vocab is not None else None
        self._check_vocab()

    def raw_logits(self, prompt: tuple[TokenId, ...], tokens: tuple[TokenId, ...]) -> tuple[float, ...]:
        """The matched rule's logits before temperature scaling."""
        context = tuple(prompt) + tuple(tokens)
        for suffix, logits in self.rules:
            if len(suffix) <= len(context) and context[len(context) - len(suffix):] == suffix:
                return logits
        return self.default_logits

    def distribution(self, prompt, tokens) -> TokenDistribution:
        return softmax_with_temperature(self.raw_logits(prompt, tokens), self.temperature)

    @classmethod
    def from_file(cls, path: str, temperature: float = 1.0) -> "ScriptedModel":
        """Load the JSON rule list format.

        The file is a JSON array. Entries with "suffix" and "logits" are
        rules in priority order; an entry with "default" supplies the
        fallback logits. Optional entries: {"end_tokens": [...]} and
        {"vocab": [...]}.
        """
        with open(path, encoding="utf-8") as fh:
            entries = json.load(fh)
        if not isinstance(entries, list):
            raise InvalidInputError("scripted model file must hold a JSON array")
        rules = []
        default = None
        end_tokens = None
        vocab = None
        for entry in entries:
            if "default" in entry:
                default = entry["default"]
            elif "suffix" in entry and "logits" in entry:
                rules.append((entry["suffix"], entry["logits"]))
            elif "end_tokens" in entry:
                end_tokens = entry["end_tokens"]
            elif "vocab" in entry:
                vocab = entry["vocab"]
            else:
                raise InvalidInputError(f"unrecognized scripted model entry: {sorted(entry)}")
        if default is None:
            raise InvalidInputError("scripted model file must include a default logits entry")
        return cls(rules, default, temperature=temperature, end_tokens=end_tokens, vocab=vocab)
