"""Provider interface: a pluggable source of next-token distributions.

A provider behaves like a frozen language model: given the prompt and the
tokens generated so far, it returns a probability vector over its
vocabulary. Implementations must be pure, so identical inputs always yield
identical outputs, and immutable after construction so they are safe for
concurrent batched queries.
"""

from __future__ import annotations

import abc
import json
from typing import Any, Optional, Sequence

from ..core import BranchState, InvalidInputError, TokenDistribution, TokenId, token_ids


class DistributionProvider(abc.ABC):
    vocab_size: int
    end_tokens: frozenset[TokenId]
    #: optional word per token id, used for text prompts and output decoding
    vocab: Optional[tuple[str, ...]] = None

    @abc.abstractmethod
    def distribution(self, prompt: tuple[TokenId, ...], tokens: tuple[TokenId, ...]) -> TokenDistribution:
        """Next-token distribution for a single sequence."""

    def next_distributions(
        self, prompt: Sequence[TokenId], sequences: Sequence[BranchState]
    ) -> list[TokenDistribution]:
        """Batched query, one distribution per sequence, order-aligned."""
        prompt = tuple(int(t) for t in prompt)
        return [self.distribution(prompt, tuple(s.tokens)) for s in sequences]

    def _word_to_id(self) -> dict[str, int]:
        if not hasattr(self, "_word_map"):
            words = self.vocab or ()
            self._word_map = {w: i for i, w in enumerate(words)}
        return self._word_map

    def encode(self, text: str) -> list[TokenId]:
        """Whitespace tokenization against the provider vocabulary.

        Words not in the vocabulary fall back to integer literals; anything
        else is dropped, so free-form prompt text never aborts a run.
        """
        mapping = self._word_to_id()
        ids: list[TokenId] = []
        for word in text.split():
            if word in mapping:
                ids.append(mapping[word])
                continue
            try:
                token = int(word)
            except ValueError:
                continue
            if 0 <= token < self.vocab_size:
                ids.append(token)
        return ids

    def decode(self, tokens: Sequence[TokenId]) -> str:
        if self.vocab is not None:
            return " ".join(self.vocab[t] for t in tokens)
        return " ".join(str(int(t)) for t in tokens)

    def _check_vocab(self):
        if self.vocab_size < 2:
            raise InvalidInputError("vocabulary must hold at least two tokens")
        if not self.end_tokens:
            raise InvalidInputError("provider must recommend at least one end token")
        token_ids(self.end_tokens, self.vocab_size)
        if self.vocab is not None and len(self.vocab) != self.vocab_size:
            raise InvalidInputError("vocab word list must match vocab_size")


def read_json_file(path: str) -> Any:
    """The JSON value held in the file at ``path``.

    Content that is not JSON raises ``InvalidInputError`` naming the file; a
    file that cannot be opened raises ``OSError``.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on a binary file
            raise InvalidInputError(f"{path}: not a JSON file: {exc}") from None
