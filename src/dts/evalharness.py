"""Dataset-driven batch evaluation: accuracy, response length, repetition
rate, and length-based selection-strategy analysis.

Records stream to JSONL as they are produced, so a killed run leaves a valid
prefix on disk. Per-run PRNG seeds are derived as hash64(seed, item_id,
method), keeping methods comparable across seeds without sharing streams.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional, Sequence

from .core import DatasetError, DtsConfig, InvalidInputError, JsonRecord, R, TokenId
from .engine import run_dts, run_standard

METHODS = ("dts", "standard")

# the repetition detector's fixed parameters; report these alongside any quoted rate
REPETITION_WINDOW = 256
REPETITION_MAX_PERIOD = 64
REPETITION_MIN_REPEATS = 3

_BOXED_RE = re.compile(r"\\boxed\{([^{}]*)\}")
_INT_RE = re.compile(r"(?<![\w.])-?\d+(?![\w.])")


@dataclass(frozen=True)
class EvalItem(JsonRecord):
    id: str
    prompt: str
    answer: str


@dataclass(frozen=True)
class EvalRecord(JsonRecord):
    item_id: str
    seed: int
    method: str
    correct: bool
    length: int
    terminated: bool
    repetition: bool
    wall_time: float
    error: Optional[str] = None


@dataclass(frozen=True)
class MethodMetrics(JsonRecord):
    runs: int
    accuracy: float
    mean_length: float
    repetition_rate: float


@dataclass(frozen=True)
class MetricsTable:
    """Per-method aggregates plus deltas of dts relative to standard."""

    per_method: dict[str, MethodMetrics]
    accuracy_delta: Optional[float] = None
    length_delta_pct: Optional[float] = None
    repetition_delta: Optional[float] = None

    def to_json_dict(self) -> dict[str, Any]:
        deltas = None
        if self.accuracy_delta is not None:
            deltas = {
                "accuracy_points": self.accuracy_delta,
                "length_pct": self.length_delta_pct,
                "repetition_points": self.repetition_delta,
            }
        return {
            "per_method": {m: v.to_json_dict() for m, v in self.per_method.items()},
            "deltas": deltas,
        }

    def render_text(self) -> str:
        lines = [f"{'method':<10} {'runs':>6} {'acc %':>8} {'mean len':>10} {'rep %':>8}"]
        for method in sorted(self.per_method):
            m = self.per_method[method]
            lines.append(
                f"{method:<10} {m.runs:>6} {m.accuracy:>8.2f} {m.mean_length:>10.2f} "
                f"{m.repetition_rate:>8.2f}"
            )
        if self.accuracy_delta is not None:
            length_part = (
                f"{self.length_delta_pct:+.2f}%" if self.length_delta_pct is not None else "n/a"
            )
            lines.append(
                f"dts vs standard: accuracy {self.accuracy_delta:+.2f} pts, "
                f"length {length_part}, repetition {self.repetition_delta:+.2f} pts"
            )
        return "\n".join(lines)


def hash64(seed: int, item_id: str, method: str) -> int:
    """Stable 64-bit seed derivation, independent of interpreter hashing."""
    digest = hashlib.blake2b(f"{seed}|{item_id}|{method}".encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "little")


def read_records(path, record_type: type[R]) -> Iterator[tuple[int, R]]:
    """(line number, record) per non-blank JSONL line; a bad line raises ``DatasetError``."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = record_type.from_json_dict(json.loads(line))
            except (ValueError, KeyError, TypeError) as exc:
                raise DatasetError(f"{path}: line {lineno}: {exc}") from exc
            yield lineno, record


def load_dataset(path) -> list[EvalItem]:
    """Read a JSONL dataset of items with unique ids."""
    items: list[EvalItem] = []
    seen: set[str] = set()
    for lineno, item in read_records(path, EvalItem):
        if item.id in seen:
            raise DatasetError(f"{path}: line {lineno}: duplicate item id {item.id!r}")
        seen.add(item.id)
        items.append(item)
    if not items:
        warnings.warn(f"dataset {path} is empty")
    return items


def extract_answer(output_text: str) -> Optional[str]:
    """Pull the final answer out of generated text: the content of the last
    boxed-answer occurrence, else the last standalone integer.
    """
    boxed = list(_BOXED_RE.finditer(output_text))
    if boxed:
        return boxed[-1].group(1).strip()
    integers = list(_INT_RE.finditer(output_text))
    if integers:
        return integers[-1].group(0).strip()
    return None


def detect_repetition(tokens: Sequence[TokenId], terminated: bool) -> bool:
    """Endless-repetition proxy: non-terminated and the tail cycles exactly.

    True iff the run did not terminate and, within the final
    ``REPETITION_WINDOW`` tokens, some period p <= ``REPETITION_MAX_PERIOD``
    has the last p * ``REPETITION_MIN_REPEATS`` tokens consist of that many
    consecutive copies of one block.
    """
    if terminated:
        return False
    tail = list(tokens[-REPETITION_WINDOW:])
    n = len(tail)
    for period in range(1, min(REPETITION_MAX_PERIOD, n // REPETITION_MIN_REPEATS) + 1):
        span = period * (REPETITION_MIN_REPEATS - 1)
        if all(tail[n - i] == tail[n - i - period] for i in range(1, span + 1)):
            return True
    return False


def describe_error(exc: BaseException) -> str:
    """``exc`` and up to three of its causes, as "Type: message <- Type: message"."""
    parts = []
    current: BaseException | None = exc
    while current is not None and len(parts) < 4:
        parts.append(f"{type(current).__name__}: {current}")
        current = current.__cause__
    return " <- ".join(parts)


def _evaluate_one(item: EvalItem, seed: int, method: str, provider, config: DtsConfig) -> EvalRecord:
    started = time.perf_counter()
    try:
        run = run_dts if method == "dts" else run_standard
        cfg = replace(config, seed=hash64(seed, item.id, method))
        result = run(provider, provider.encode(item.prompt), cfg)
        text = provider.decode(result.output.tokens)
        extracted = extract_answer(text)
        return EvalRecord(
            item_id=item.id,
            seed=seed,
            method=method,
            correct=extracted is not None and extracted == item.answer.strip(),
            length=len(result.output.tokens),
            terminated=result.terminated,
            repetition=detect_repetition(result.output.tokens, result.terminated),
            wall_time=time.perf_counter() - started,
        )
    except Exception as exc:
        return EvalRecord(
            item_id=item.id,
            seed=seed,
            method=method,
            correct=False,
            length=0,
            terminated=False,
            repetition=False,
            wall_time=time.perf_counter() - started,
            error=describe_error(exc),
        )


def run_eval(
    dataset: Sequence[EvalItem],
    provider,
    config: DtsConfig,
    seeds: Sequence[int],
    methods: Iterable[str],
    out_path=None,
    jobs: int = 1,
) -> list[EvalRecord]:
    """One record per (item, seed, method), streamed to ``out_path`` if given.

    Provider failures are recorded as incorrect with an error note and the
    run continues. With ``jobs`` > 1 items are evaluated concurrently but
    records are written in deterministic task order.
    """
    if jobs < 1:
        raise InvalidInputError(f"jobs must be >= 1, got {jobs}")
    method_list = sorted(set(methods))
    for method in method_list:
        if method not in METHODS:
            raise InvalidInputError(f"unknown method {method!r}; expected dts or standard")
    tasks = [(item, seed, method) for item in dataset for seed in seeds for method in method_list]

    records: list[EvalRecord] = []
    with ExitStack() as stack:
        writer = stack.enter_context(open(out_path, "w", encoding="utf-8")) if out_path is not None else None
        mapper = stack.enter_context(ThreadPoolExecutor(max_workers=jobs)).map if jobs > 1 else map
        for record in mapper(lambda task: _evaluate_one(*task, provider, config), tasks):
            records.append(record)
            if writer is not None:
                writer.write(json.dumps(record.to_json_dict()) + "\n")
                writer.flush()
    return records


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def aggregate_metrics(records: Sequence[EvalRecord]) -> MetricsTable:
    """Per-method accuracy %, mean length and repetition rate %, with deltas."""
    if not records:
        raise InvalidInputError("cannot aggregate an empty record set")
    per_method: dict[str, MethodMetrics] = {}
    for method in sorted({r.method for r in records}):
        rows = [r for r in records if r.method == method]
        per_method[method] = MethodMetrics(
            runs=len(rows),
            accuracy=100.0 * _mean(r.correct for r in rows),
            mean_length=_mean(r.length for r in rows),
            repetition_rate=100.0 * _mean(r.repetition for r in rows),
        )
    accuracy_delta = length_delta_pct = repetition_delta = None
    if "dts" in per_method and "standard" in per_method:
        dts, std = per_method["dts"], per_method["standard"]
        accuracy_delta = dts.accuracy - std.accuracy
        if std.mean_length > 0:
            length_delta_pct = 100.0 * (dts.mean_length - std.mean_length) / std.mean_length
        repetition_delta = dts.repetition_rate - std.repetition_rate
    return MetricsTable(
        per_method=per_method,
        accuracy_delta=accuracy_delta,
        length_delta_pct=length_delta_pct,
        repetition_delta=repetition_delta,
    )


def selection_strategy_analysis(
    records: Sequence[EvalRecord], strategy: str
) -> tuple[float, float]:
    """Accuracy % and mean length under a per-item length-selection strategy.

    "shortest" and "longest" pick one record per item by length, ties going
    to the lowest seed; "mean" scores every record.
    """
    if strategy not in ("shortest", "longest", "mean"):
        raise InvalidInputError(f"unknown strategy {strategy!r}")
    if not records:
        raise InvalidInputError("cannot analyze an empty record set")
    groups: dict[str, list[EvalRecord]] = {}
    for record in records:
        groups.setdefault(record.item_id, []).append(record)
    selected: list[EvalRecord] = []
    for rows in groups.values():
        if strategy == "mean":
            selected.extend(rows)
        elif strategy == "shortest":
            selected.append(min(rows, key=lambda r: (r.length, r.seed)))
        else:
            selected.append(min(rows, key=lambda r: (-r.length, r.seed)))
    accuracy = 100.0 * _mean(r.correct for r in selected)
    mean_length = _mean(r.length for r in selected)
    return accuracy, mean_length


def _linear_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0.0:
        return 0.0, mean_y
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, mean_y - slope * mean_x


def export_scatter(records: Sequence[EvalRecord], path) -> None:
    """CSV of per-run points plus a sidecar JSON with the least-squares fit.

    The fit regresses correctness (0/1) on response length; the sidecar is
    written next to the CSV with the suffix ".fit.json".
    """
    if not records:
        raise InvalidInputError("cannot export an empty record set")
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("item_id,seed,method,length,correct\n")
        for r in records:
            fh.write(f"{r.item_id},{r.seed},{r.method},{r.length},{int(r.correct)}\n")
    slope, intercept = _linear_fit(
        [float(r.length) for r in records], [1.0 if r.correct else 0.0 for r in records]
    )
    with open(path.with_suffix(".fit.json"), "w", encoding="utf-8") as fh:
        json.dump({"slope": slope, "intercept": intercept, "points": len(records)}, fh)
        fh.write("\n")
