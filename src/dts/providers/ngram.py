"""N-gram provider with additive smoothing, a desk-scale language model.

P(v | ctx) = (count(ctx, v) + alpha) / (total(ctx) + alpha * V), where ctx is
the last n-1 tokens. Unseen contexts fall back to the uniform smoothing
floor, one row shared by all of them, so every distribution has full support
and the model can always terminate.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from ..core import InvalidInputError, TokenDistribution, TokenId, token_ids
from .base import DistributionProvider

# the end word of a text-corpus vocabulary, which takes the last token id
END_WORD = "<e>"


class NGramModel(DistributionProvider):
    def __init__(
        self,
        n: int,
        alpha: float,
        counts: dict[tuple[TokenId, ...], dict[TokenId, int]],
        vocab_size: int,
        end_tokens: Sequence[TokenId],
        vocab: Optional[Sequence[str]] = None,
    ):
        if n < 1:
            raise InvalidInputError("n-gram order must be >= 1")
        if not alpha > 0.0:
            raise InvalidInputError("smoothing constant alpha must be > 0")
        super().__init__(vocab_size, end_tokens, vocab)
        self.n = int(n)
        self.alpha = float(alpha)
        # the one check of the counts, in passes over the whole model: a key of -1
        # would index from the end, a key of True add to every id, a count of True is not 1
        width = self.n - 1
        for ctx, row in counts.items():
            if not (isinstance(ctx, tuple) and len(ctx) == width and isinstance(row, dict)):
                raise InvalidInputError(f"context {ctx!r} must be a tuple of {width} token ids mapped to a dict")
        token_ids(chain.from_iterable(counts), self.vocab_size)
        token_ids(chain.from_iterable(counts.values()), self.vocab_size)
        values = list(chain.from_iterable(map(dict.values, counts.values())))
        if not ({int}.issuperset(map(type, values)) and min(values, default=1) > 0):
            raise InvalidInputError("n-gram counts must be positive integers")
        # a checked numpy id equals and hashes as its int, so the copies keep the given ids
        self.counts = {ctx: dict(row) for ctx, row in counts.items()}
        self.context_totals = {ctx: sum(row.values()) for ctx, row in self.counts.items()}
        # rows of corpus contexts only; every other context gets the one smoothing-floor row
        self._cache: dict[tuple[TokenId, ...], TokenDistribution] = {}
        self._floor = TokenDistribution(np.full(self.vocab_size, self.alpha) / (self.alpha * self.vocab_size))

    def _context(self, prompt, tokens) -> tuple[TokenId, ...]:
        if self.n == 1:
            return ()
        full = prompt + tokens
        return full[max(0, len(full) - (self.n - 1)):]

    def next_distributions(self, prompt, sequences) -> list[TokenDistribution]:
        prompt = tuple(prompt)
        return [self._row(self._context(prompt, tuple(tokens))) for tokens in sequences]

    def _row(self, ctx) -> TokenDistribution:
        cached = self._cache.get(ctx)
        if cached is not None:
            return cached
        counts = self.counts.get(ctx)
        if counts is None:
            return self._floor
        row = np.full(self.vocab_size, self.alpha, dtype=np.float64)
        row[np.fromiter(counts, np.intp, len(counts))] += np.fromiter(counts.values(), np.float64, len(counts))
        dist = TokenDistribution(row / (self.context_totals[ctx] + self.alpha * self.vocab_size))
        self._cache[ctx] = dist
        return dist

    @classmethod
    def from_text_corpus(cls, lines: Sequence[str], n: int, alpha: float) -> "NGramModel":
        """Build from whitespace-tokenized text, one sequence per line.

        The vocabulary is the sorted set of corpus words plus the reserved
        end word ``END_WORD``.
        """
        sequences_words = [line.split() for line in lines if line.strip()]
        if not sequences_words:
            raise InvalidInputError("corpus is empty")
        words = sorted({w for seq in sequences_words for w in seq if w != END_WORD})
        vocab = tuple(words) + (END_WORD,)
        word_to_id = {w: i for i, w in enumerate(vocab)}
        corpus = [[word_to_id[w] for w in seq] for seq in sequences_words]
        end_token = len(vocab) - 1
        return train_ngram(
            corpus, n, alpha, vocab_size=len(vocab), end_tokens=[end_token], vocab=vocab
        )


def train_ngram(
    corpus: Sequence[Sequence[TokenId]],
    n: int,
    alpha: float,
    vocab_size: Optional[int] = None,
    end_tokens: Optional[Sequence[TokenId]] = None,
    vocab: Optional[Sequence[str]] = None,
) -> NGramModel:
    """Count all length-n windows of the corpus into an NGramModel.

    Corpus ids are checked against ``vocab_size``; when it is omitted it is
    inferred as max token id + 2, reserving one fresh id to act as the end
    token. The end token defaults to the last id.
    """
    sequences = [token_ids(seq, math.inf if vocab_size is None else vocab_size) for seq in corpus]
    if not any(sequences):
        raise InvalidInputError("corpus is empty")
    if vocab_size is None:
        vocab_size = max(max(seq, default=-1) for seq in sequences) + 2
    if end_tokens is None:
        end_tokens = [vocab_size - 1]

    # every length-n window in one C-level count, then regrouped by context,
    # both in first-seen order; the model checks n and alpha
    windows = Counter(chain.from_iterable(zip(*(seq[j:] for j in range(n))) for seq in sequences))
    counts: dict[tuple[TokenId, ...], dict[TokenId, int]] = {}
    for window, count in windows.items():
        counts.setdefault(window[:-1], {})[window[-1]] = count
    return NGramModel(n, alpha, counts, vocab_size, end_tokens, vocab=vocab)
