"""Shared domain types for the decoding engine.

Token sequences, branches, run configuration and run results. All values
are immutable after construction; mutation happens only by building new
values inside the engine step loop.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Mapping
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, Optional, TypeVar, get_args, get_origin, get_type_hints

import numpy as np

# A token is a non-negative index into a provider's vocabulary.
TokenId = int

PROB_SUM_TOL = 1e-6


class DtsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(DtsError, ValueError):
    """A caller-supplied value violates a documented precondition."""


class ProviderError(DtsError):
    """A provider call failed while the engine was running; carries step context."""


class TransportError(DtsError):
    """HTTP-level failure talking to a remote provider."""

    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts


class ProtocolError(DtsError):
    """A remote provider returned a payload that violates the wire contract."""


class ResourceLimitError(DtsError):
    """A configured work limit was exceeded."""


class DatasetError(DtsError):
    """A dataset file could not be parsed."""


def token_ids(values: Iterable[Any], vocab_size: float = math.inf) -> tuple[TokenId, ...]:
    """``values`` as Python ints, each a Python or numpy integer in ``[0, vocab_size)``.

    The one check of token ids that enter from outside the program; the
    records the engine builds from checked ids are not checked again.
    ``values`` may be any iterable but a string, bytes or a mapping, which
    would iterate as characters, bytes or keys. Without a ``vocab_size``
    only the type and the sign are checked.
    """
    if isinstance(values, (str, bytes, bytearray, Mapping)) or not isinstance(values, Iterable):
        raise InvalidInputError(f"token ids must be a sequence of integers, got {type(values).__name__}")
    ids = []
    for value in values:
        # an exact type test: bool is an int subclass, and is not an id
        if type(value) is not int and not isinstance(value, np.integer):
            raise InvalidInputError(f"token id {value!r} is not an integer")
        if not 0 <= value < vocab_size:
            where = "is negative" if value < 0 else f"outside vocabulary of size {vocab_size}"
            raise InvalidInputError(f"token id {value} {where}")
        ids.append(int(value))
    return tuple(ids)


# the types json.loads gives a JSON number
_NUMBER_TYPES = frozenset((int, float))


def json_numbers(values: Any) -> list:
    """``values`` as it is: a list of JSON numbers, each a Python ``int`` or ``float``.

    The one check of numbers read from JSON (model files, records and the
    wire). ``json.loads`` reads every JSON number as one of the two, and the
    exact type test refuses a ``true`` (``bool`` is an ``int`` subclass) and a
    string such as ``"0.5"``, which ``float()`` and numpy read as numbers.
    """
    if not isinstance(values, list):
        raise InvalidInputError(f"values must be numbers in a JSON array, got {type(values).__name__}")
    if not _NUMBER_TYPES.issuperset(map(type, values)):
        bad = next(v for v in values if type(v) not in _NUMBER_TYPES)
        raise InvalidInputError(f"values must be numbers, got {bad!r}")
    return values


R = TypeVar("R", bound="JsonRecord")


class JsonRecord:
    """Mixin for dataclasses whose JSON form has one key per field, in field order.

    Writing turns tuples into lists and nested records into dicts. Only flat
    records are read back, those whose fields are all ``bool``, ``int``,
    ``float``, ``str`` or ``Optional[str]``. A ``bool`` field accepts only
    ``true`` and ``false``, an ``int`` field only an integer and a ``str``
    field only a string or a number; anything else raises
    ``InvalidInputError``. An absent field keeps its default, an absent
    required field raises ``KeyError`` and unknown keys are ignored.
    """

    def to_json_dict(self) -> dict[str, Any]:
        return _json_dict(self)

    @classmethod
    def from_json_dict(cls: type[R], data: dict[str, Any]) -> R:
        values = {}
        for name, _, read, required in _json_fields(cls):
            if name in data:
                values[name] = read(data[name])
            elif required:
                raise KeyError(name)
        return cls(**values)


def _json_dict(record: JsonRecord, skip: Optional[str] = None) -> dict[str, Any]:
    data = {}
    for name, write, _, _ in _json_fields(type(record)):
        if name != skip:
            value = getattr(record, name)
            data[name] = value if write is None else write(value)
    return data


@functools.cache
def _json_fields(cls: type) -> tuple[tuple[str, Optional[Callable], Optional[Callable], bool], ...]:
    """(name, writer, reader, required) per field; type hints are resolved once per class.
    A writer of None keeps the value as it is; a reader of None marks a field never read."""
    hints = get_type_hints(cls)
    return tuple(
        (f.name, _writer(hints[f.name]), _READERS.get(hints[f.name]),
         f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
    )


def _writer(hint: Any) -> Optional[Callable]:
    if get_origin(hint) is tuple:
        write = _writer(get_args(hint)[0])
        return list if write is None else lambda v: [write(x) for x in v]
    if isinstance(hint, type) and issubclass(hint, JsonRecord):
        return lambda v: v.to_json_dict()
    return None


def _read_exact(kind: type, value: Any) -> Any:
    # exact type: a JSON true is not an int, and 2.0 is not an int either
    if type(value) is not kind:
        raise InvalidInputError(f"expected {kind.__name__}, got {value!r}")
    return value


def _read_str(value: Any) -> str:
    # numbers are read as strings: AIME answers and some dataset ids are integers
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise InvalidInputError(f"expected a string or a number, got {value!r}")
    return str(value)


# the field types of the records read back: dataset items and eval records
_READERS = {bool: functools.partial(_read_exact, bool), int: functools.partial(_read_exact, int),
            float: lambda v: float(json_numbers([v])[0]),
            str: _read_str, Optional[str]: lambda v: None if v is None else _read_str(v)}


@dataclass(frozen=True, eq=False)
class TokenDistribution:
    """Probability vector over a vocabulary at one decoding position.

    Entries lie in [0, 1] and sum to 1 within ``PROB_SUM_TOL``. The
    underlying array is copied and frozen at construction.
    """

    probs: np.ndarray

    def __post_init__(self):
        try:
            arr = np.array(self.probs, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"distribution entries must be numbers: {exc}") from None
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidInputError("distribution must be a non-empty 1-d vector")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("distribution entries must be finite")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise InvalidInputError("distribution entries must lie in [0, 1]")
        total = float(arr.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise InvalidInputError(f"distribution sums to {total}, expected 1 within {PROB_SUM_TOL}")
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def vocab_size(self) -> int:
        return int(self.probs.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TokenDistribution):
            return NotImplemented
        return np.array_equal(self.probs, other.probs)


@dataclass(frozen=True)
class BranchState(JsonRecord):
    """One reasoning path: its tokens, score and lineage."""

    tokens: tuple[TokenId, ...]
    cumulative_logprob: float
    finished: bool
    branch_id: int
    parent_branch_id: Optional[int] = None
    fork_step: Optional[int] = None


@dataclass(frozen=True)
class DtsConfig:
    """Decoding parameters.

    ``tau`` is the entropy threshold in nats; ``tau = math.inf`` means never
    branch. ``max_branches`` caps the frontier; the cap is enforced by
    demoting branch decisions, never by dropping live branches.
    """

    tau: float
    k: int
    temperature: float
    max_tokens: int
    end_tokens: frozenset[TokenId]
    max_branches: int = 32
    seed: int = 0

    def __post_init__(self):
        # the vocabulary range is checked by the engine, which knows the provider
        object.__setattr__(self, "end_tokens", frozenset(token_ids(self.end_tokens)))
        if math.isnan(self.tau) or self.tau < 0.0:
            raise InvalidInputError("tau must be >= 0 (math.inf disables branching)")
        if self.k < 1:
            raise InvalidInputError("k must be >= 1")
        # NaN fails both comparisons; at T = inf any row with a zero would fail mid-run
        if not 0.0 < self.temperature < math.inf:
            raise InvalidInputError("temperature must be finite and > 0")
        if self.max_tokens < 1:
            raise InvalidInputError("max_tokens must be >= 1")
        if self.max_branches < 1:
            raise InvalidInputError("max_branches must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise InvalidInputError("seed must fit in 64 unsigned bits")
        if not self.end_tokens:
            raise InvalidInputError("end_tokens must be non-empty")


@dataclass(frozen=True)
class StepTrace(JsonRecord):
    """What happened to one branch at one step: entropy seen, fanned out or not."""

    step: int
    branch_id: int
    entropy: float
    branched: bool
    chosen_tokens: tuple[TokenId, ...]


@dataclass(frozen=True)
class RunResult(JsonRecord):
    """Outcome of one decoding run."""

    output: BranchState
    terminated: bool
    steps_executed: int
    peak_frontier_size: int
    total_branch_events: int
    traces: tuple[StepTrace, ...] = field(default_factory=tuple)

    def to_json_dict(self, include_traces: bool = True) -> dict[str, Any]:
        # the traces are left out before encoding: an untraced dump costs nothing per trace
        return _json_dict(self, skip=None if include_traces else "traces")
