"""Scripted provider: an ordered table of suffix-pattern rules over logits.

The exact-test fixture. Each rule maps a context suffix to a logit vector;
the first rule whose suffix matches the end of prompt + generated tokens
wins, and a default vector applies when none match. The distribution is the
softmax of the matched logits, so entropy at each scripted position is fully
under the test author's control.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..branching import softmax
from ..core import InvalidInputError, TokenDistribution, TokenId, json_numbers, token_ids
from .base import DistributionProvider, read_model_file


class ScriptedModel(DistributionProvider):
    def __init__(
        self,
        rules: Sequence[tuple[Sequence[TokenId], Sequence[float]]],
        default_logits: Sequence[float],
        end_tokens: Optional[Sequence[TokenId]] = None,
        vocab: Optional[Sequence[str]] = None,
    ):
        self.default = softmax(default_logits)
        if end_tokens is None:
            end_tokens = [self.default.vocab_size - 1]
        super().__init__(self.default.vocab_size, end_tokens, vocab)
        self.rules = tuple(
            (token_ids(suffix, self.vocab_size), softmax(logits)) for suffix, logits in rules
        )
        for suffix, dist in self.rules:
            if dist.vocab_size != self.vocab_size:
                raise InvalidInputError("every rule must provide one logit per vocabulary token")

    def next_distributions(self, prompt, sequences) -> list[TokenDistribution]:
        prompt = tuple(prompt)
        return [self._row(prompt + tuple(tokens)) for tokens in sequences]

    def _row(self, context) -> TokenDistribution:
        """The softmax of the first rule whose suffix ends ``context``, the prompt and tokens."""
        for suffix, dist in self.rules:
            if len(suffix) <= len(context) and context[len(context) - len(suffix):] == suffix:
                return dist
        return self.default

    @classmethod
    def from_file(cls, path: str) -> "ScriptedModel":
        """Load the JSON rule list format.

        The file is a JSON array. Entries with "suffix" and "logits" are
        rules in priority order; an entry with "default" supplies the
        fallback logits. Optional entries: {"end_tokens": [...]} and
        {"vocab": [...]}.
        """
        return read_model_file(path, cls._from_json)

    @classmethod
    def _from_json(cls, entries) -> "ScriptedModel":
        if not isinstance(entries, list) or not all(isinstance(entry, dict) for entry in entries):
            raise InvalidInputError("scripted model file must hold a JSON array of objects")
        rules = []
        default = None
        end_tokens = None
        vocab = None
        for entry in entries:
            if "default" in entry:
                default = json_numbers(entry["default"])
            elif "suffix" in entry and "logits" in entry:
                rules.append((entry["suffix"], json_numbers(entry["logits"])))
            elif "end_tokens" in entry:
                end_tokens = entry["end_tokens"]
            elif "vocab" in entry:
                vocab = entry["vocab"]
            else:
                raise InvalidInputError(f"unrecognized scripted model entry: {sorted(entry)}")
        if default is None:
            raise InvalidInputError("scripted model file must include a default logits entry")
        return cls(rules, default, end_tokens=end_tokens, vocab=vocab)
