"""Provider interface: a pluggable source of next-token distributions.

A provider behaves like a frozen language model. Its one method,
``next_distributions``, takes the prompt and a batch of generated-token
sequences, one per live branch, and returns one probability vector over the
vocabulary per sequence, in the batch's order. Implementations must be
pure: outputs depend only on the inputs, so identical inputs always yield
identical outputs. A provider may keep per-thread memory of its last
batch, and stays safe for concurrent batches.
"""

from __future__ import annotations

import abc
import json
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from ..core import InvalidInputError, TokenDistribution, TokenId, token_ids


class DistributionProvider(abc.ABC):
    def __init__(self, vocab_size: int, end_tokens: Iterable[TokenId], vocab: Optional[Sequence[str]] = None):
        """The one check of a provider's vocabulary size, recommended end tokens and
        optional words (one per token id, used for text prompts and output decoding)."""
        if isinstance(vocab_size, bool) or not isinstance(vocab_size, (int, np.integer)) or vocab_size < 2:
            raise InvalidInputError(f"vocab_size {vocab_size!r} is not an integer >= 2")
        self.vocab_size = int(vocab_size)
        self.end_tokens = frozenset(token_ids(end_tokens, self.vocab_size))
        if not self.end_tokens:
            raise InvalidInputError("provider must recommend at least one end token")
        if vocab is not None:
            # only a list or tuple: a string or a dict would iterate as its characters or keys
            vocab = tuple(vocab) if isinstance(vocab, (list, tuple)) else ()
            if len(vocab) != self.vocab_size or not all(isinstance(word, str) for word in vocab):
                raise InvalidInputError(f"vocab must hold one string per token id, {self.vocab_size} in all")
        self.vocab = vocab
        self._word_ids = {word: i for i, word in enumerate(vocab or ())}

    @abc.abstractmethod
    def next_distributions(
        self, prompt: Sequence[TokenId], sequences: Sequence[tuple[TokenId, ...]]
    ) -> list[TokenDistribution]:
        """One distribution of ``vocab_size`` entries per generated-token sequence, in order."""

    def encode(self, text: str) -> list[TokenId]:
        """Whitespace tokenization against the provider vocabulary.

        Words not in the vocabulary fall back to integer literals; anything
        else is dropped, so free-form prompt text never aborts a run.
        """
        mapping = self._word_ids
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
        return " ".join(map(str, tokens))


def read_model_file(path: str, build: Callable[[Any], DistributionProvider]) -> DistributionProvider:
    """``build`` applied to the JSON value held in the file at ``path``.

    Content that is not JSON, and any ``AttributeError``, ``KeyError``,
    ``TypeError`` or ``ValueError`` that ``build`` raises on a value of the
    wrong shape, raise ``InvalidInputError`` naming the file; a file that
    cannot be opened raises ``OSError``.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on a binary file
            raise InvalidInputError(f"{path}: not a JSON file: {exc}") from None
    try:
        return build(data)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"{path}: malformed model file ({type(exc).__name__}: {exc})") from None
