import json
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from dts import (
    DatasetError,
    DtsConfig,
    EvalItem,
    EvalRecord,
    InvalidInputError,
    PfsaModel,
    ScriptedModel,
    aggregate_metrics,
    detect_repetition,
    export_scatter,
    extract_answer,
    load_dataset,
    run_eval,
    selection_strategy_analysis,
)
from dts.evalharness import hash64

from support import one_hot_logits


def record(item_id="q1", seed=0, method="standard", correct=True, length=10,
           terminated=True, repetition=False):
    return EvalRecord(
        item_id=item_id, seed=seed, method=method, correct=correct, length=length,
        terminated=terminated, repetition=repetition, wall_time=0.001,
    )


def test_item_and_record_json_roundtrip():
    item = EvalItem(id="q7", prompt="what is 6*7?", answer="42")
    assert EvalItem.from_json_dict(json.loads(json.dumps(item.to_json_dict()))) == item
    rec = record(item_id="q7", seed=3, method="dts", correct=False, length=17)
    assert EvalRecord.from_json_dict(json.loads(json.dumps(rec.to_json_dict()))) == rec


def test_record_reader_ignores_unknown_keys():
    rec = record(item_id="q7", seed=3)
    assert EvalRecord.from_json_dict(dict(rec.to_json_dict(), note="extra")) == rec


@pytest.mark.parametrize(
    "field, value", [("seed", 2.7), ("seed", 2.0), ("length", True), ("length", "12"), ("seed", None)]
)
def test_record_int_fields_accept_only_integers(field, value):
    data = dict(record().to_json_dict(), **{field: value})
    with pytest.raises(InvalidInputError):
        EvalRecord.from_json_dict(data)


def test_record_float_field_accepts_an_integer():
    assert EvalRecord.from_json_dict(dict(record().to_json_dict(), wall_time=1)).wall_time == 1.0


class TestLoadDataset:
    def write(self, tmp_path, lines):
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_two_valid_lines(self, tmp_path):
        path = self.write(tmp_path, [
            json.dumps({"id": "a", "prompt": "p1", "answer": "1"}),
            json.dumps({"id": "b", "prompt": "p2", "answer": "2"}),
        ])
        items = load_dataset(path)
        assert [i.id for i in items] == ["a", "b"]

    def test_duplicate_id_names_offender(self, tmp_path):
        path = self.write(tmp_path, [
            json.dumps({"id": "a", "prompt": "p", "answer": "1"}),
            json.dumps({"id": "a", "prompt": "q", "answer": "2"}),
        ])
        with pytest.raises(DatasetError, match="'a'"):
            load_dataset(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = self.write(tmp_path, [
            json.dumps({"id": "a", "prompt": "p", "answer": "1"}),
            "{not json",
        ])
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)

    def test_numeric_id_and_answer_read_as_strings(self, tmp_path):
        path = self.write(tmp_path, [json.dumps({"id": 7, "prompt": "p", "answer": 42})])
        assert load_dataset(path) == [EvalItem("7", "p", "42")]

    def test_missing_answer_reports_line_number(self, tmp_path):
        path = self.write(tmp_path, [
            json.dumps({"id": "a", "prompt": "p", "answer": "1"}),
            json.dumps({"id": "b", "prompt": "q"}),
        ])
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)

    def test_null_fields_report_line_number(self, tmp_path):
        path = self.write(tmp_path, [
            json.dumps({"id": "a", "prompt": "p", "answer": "1"}),
            json.dumps({"id": None, "prompt": None, "answer": None}),
        ])
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)

    def test_empty_file_warns(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.warns(UserWarning):
            assert load_dataset(path) == []


class TestExtractAnswer:
    def test_boxed_answer(self):
        assert extract_answer(r"so the answer is \boxed{108}.") == "108"

    def test_last_boxed_wins(self):
        assert extract_answer(r"\boxed{3} then \boxed{42}") == "42"

    def test_no_answer_is_absent(self):
        assert extract_answer("no conclusion reached") is None

    def test_last_integer_fallback(self):
        assert extract_answer("values 3, 17, final 42") == "42"

    def test_negative_integer(self):
        assert extract_answer("result -7") == "-7"

    def test_decimal_not_matched_as_integer(self):
        assert extract_answer("pi is 3.14 but count is 9") == "9"


class TestDetectRepetition:
    def test_period_two_cycle(self):
        tokens = [5, 6, 7] + [1, 2] * 3
        assert detect_repetition(tokens, terminated=False)
        assert detect_repetition([1, 2] * 3, terminated=False)

    def test_termination_excludes(self):
        tokens = [1, 2] * 10
        assert not detect_repetition(tokens, terminated=True)

    def test_distinct_tail_clean(self):
        assert not detect_repetition(list(range(256)), terminated=False)

    def test_two_copies_not_enough(self):
        assert not detect_repetition([9, 1, 2, 1, 2], terminated=False)
        assert not detect_repetition([1, 2] * 2, terminated=False)

    def test_longer_period(self):
        block = list(range(40, 104))  # period 64, the maximum
        assert detect_repetition([7] * 5 + block * 3, terminated=False)

    def test_period_above_max_ignored(self):
        block = list(range(40, 105))  # period 65
        assert not detect_repetition(block * 3, terminated=False)

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=257, max_size=300))
    @settings(max_examples=40)
    def test_window_invariance(self, prefix):
        # a prefix longer than the 256-token window never changes the verdict on the tail
        for tail in ([3, 4, 5] * 4, list(range(100, 356))):
            base = detect_repetition(tail, terminated=False)
            assert detect_repetition(prefix + tail, terminated=False) == base


def always_answer_provider():
    """Deterministically emits 'ans <e>' where ans decodes to boxed 42."""
    vocab = ["\\boxed{42}", "x", "<e>"]
    return ScriptedModel(
        rules=[([0], one_hot_logits(3, 2, scale=1e9))],
        default_logits=one_hot_logits(3, 0, scale=1e9),
        end_tokens=[2],
        vocab=vocab,
    )


def eval_config(end_tokens, **overrides):
    base = dict(
        tau=2.5, k=2, temperature=1.0, max_tokens=32, end_tokens=end_tokens, max_branches=8,
    )
    base.update(overrides)
    return DtsConfig(**base)


class TestRunEval:
    def items(self, n=2, answer="42"):
        return [EvalItem(id=f"q{i}", prompt="", answer=answer) for i in range(n)]

    def test_cardinality(self):
        provider = always_answer_provider()
        records = run_eval(
            self.items(2), provider, eval_config(provider.end_tokens),
            seeds=[0, 1, 2, 3, 4], methods={"dts", "standard"},
        )
        assert len(records) == 20

    def test_always_correct_provider_scores_100(self):
        provider = always_answer_provider()
        records = run_eval(
            self.items(3), provider, eval_config(provider.end_tokens),
            seeds=[0, 1], methods={"standard"},
        )
        assert all(r.correct for r in records)
        assert all(r.terminated and r.length == 2 for r in records)

    def test_streaming_writes_jsonl(self, tmp_path):
        provider = always_answer_provider()
        out = tmp_path / "records.jsonl"
        records = run_eval(
            self.items(2), provider, eval_config(provider.end_tokens),
            seeds=[0], methods={"standard"}, out_path=out,
        )
        lines = out.read_text().strip().splitlines()
        assert len(lines) == len(records) == 2
        parsed = [EvalRecord.from_json_dict(json.loads(line)) for line in lines]
        assert parsed == records

    def test_interrupt_leaves_valid_prefix(self, tmp_path):
        provider = always_answer_provider()
        out = tmp_path / "records.jsonl"
        original = provider.distribution
        calls = {"n": 0}

        def flaky(prompt, tokens):
            calls["n"] += 1
            if calls["n"] > 4:  # each item takes two steps; kill mid third item
                raise KeyboardInterrupt
            return original(prompt, tokens)

        provider.distribution = flaky
        with pytest.raises(KeyboardInterrupt):
            run_eval(
                self.items(5), provider, eval_config(provider.end_tokens),
                seeds=[0], methods={"standard"}, out_path=out,
            )
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            EvalRecord.from_json_dict(json.loads(line))

    def test_provider_failure_recorded_and_run_continues(self):
        provider = always_answer_provider()
        original = provider.distribution

        def sometimes(prompt, tokens):
            if getattr(sometimes, "item_broken", False):
                raise RuntimeError("backend down")
            return original(prompt, tokens)

        provider.distribution = sometimes
        items = self.items(3)

        real_encode = provider.encode

        def encode(text):
            sometimes.item_broken = text == "BROKEN"
            return real_encode(text)

        provider.encode = encode
        items[1] = EvalItem(id="q1", prompt="BROKEN", answer="42")
        records = run_eval(
            items, provider, eval_config(provider.end_tokens), seeds=[0], methods={"standard"},
        )
        assert len(records) == 3
        assert records[0].correct and records[2].correct
        assert not records[1].correct and "backend down" in records[1].error

    def test_unknown_method_rejected(self):
        provider = always_answer_provider()
        with pytest.raises(InvalidInputError):
            run_eval(self.items(1), provider, eval_config(provider.end_tokens), [0], {"beam"})

    def test_jobs_parallel_matches_serial_order(self):
        # the automaton's runs fork and take many steps, so concurrent runs on one
        # provider each extend their own last query
        many_steps = PfsaModel(
            initial_state=0,
            emissions={0: [0.05, 0.5, 0.43, 0.02], 1: [0.3, 0.3, 0.38, 0.02]},
            transitions={0: {0: 1, 1: 1, 2: 0}, 1: {0: 0, 1: 1, 2: 0}},
            end_tokens=[3],
            vocab=["\\boxed{42}", "x", "y", "<e>"],
        )
        strip = lambda rs: [(r.item_id, r.seed, r.method, r.correct, r.length, r.terminated) for r in rs]
        for provider, tau in ((always_answer_provider(), 2.5), (many_steps, 0.9)):
            cfg = eval_config(provider.end_tokens, tau=tau)
            serial = run_eval(self.items(3), provider, cfg, [0, 1], {"dts", "standard"})
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                parallel = run_eval(self.items(3), provider, cfg, [0, 1], {"dts", "standard"}, jobs=4)
            finally:
                sys.setswitchinterval(interval)
            assert strip(serial) == strip(parallel)
        assert max(r.length for r in serial) > 10

    def test_method_seeds_are_decoupled(self):
        assert hash64(0, "q1", "dts") != hash64(0, "q1", "standard")
        assert hash64(0, "q1", "dts") != hash64(1, "q1", "dts")
        assert hash64(3, "a", "dts") == hash64(3, "a", "dts")

    def test_known_success_probability_recovered(self):
        # the correct-answer path fires with probability 0.6 by construction;
        # empirical accuracy over 500 runs stays within 3 standard errors
        from dts import PfsaModel

        provider = PfsaModel(
            initial_state="s0",
            emissions={
                "s0": [0.6, 0.4, 0.0, 0.0],
                "good": [0.0, 0.0, 1.0, 0.0],
                "stop": [0.0, 0.0, 0.0, 1.0],
            },
            transitions={"s0": {0: "good", 1: "stop"}, "good": {2: "stop"}},
            end_tokens=[3],
            vocab=["hit", "miss", "\\boxed{9}", "<e>"],
        )
        runs = 500
        records = run_eval(
            [EvalItem(id="q", prompt="", answer="9")],
            provider,
            eval_config(provider.end_tokens, k=3),
            seeds=list(range(runs)),
            methods={"standard"},
        )
        accuracy = sum(r.correct for r in records) / runs
        standard_error = math.sqrt(0.6 * 0.4 / runs)
        assert abs(accuracy - 0.6) < 3 * standard_error


class TestAggregateMetrics:
    def test_two_of_three_correct(self):
        table = aggregate_metrics([record(correct=True), record(correct=True), record(correct=False)])
        assert table.per_method["standard"].accuracy == pytest.approx(200 / 3)

    def test_zero_repetition_rate(self):
        table = aggregate_metrics([record(), record()])
        assert table.per_method["standard"].repetition_rate == 0.0

    def test_mean_length(self):
        table = aggregate_metrics([record(length=100), record(length=300)])
        assert table.per_method["standard"].mean_length == pytest.approx(200.0)

    def test_deltas_both_methods(self):
        rows = [
            record(method="standard", correct=False, length=200, repetition=True),
            record(method="standard", correct=True, length=100),
            record(method="dts", correct=True, length=120),
            record(method="dts", correct=True, length=60),
        ]
        table = aggregate_metrics(rows)
        assert table.accuracy_delta == pytest.approx(50.0)
        assert table.length_delta_pct == pytest.approx(100 * (90 - 150) / 150)
        assert table.repetition_delta == pytest.approx(-50.0)
        rendered = table.render_text()
        assert "dts" in rendered and "standard" in rendered

    def test_permutation_invariance(self):
        rows = [record(seed=s, correct=s % 2 == 0, length=s * 10 + 5) for s in range(7)]
        assert aggregate_metrics(rows) == aggregate_metrics(list(reversed(rows)))

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            aggregate_metrics([])


class TestSelectionStrategy:
    def test_two_record_item(self):
        rows = [
            record(seed=0, length=10, correct=True),
            record(seed=1, length=50, correct=False),
        ]
        assert selection_strategy_analysis(rows, "shortest") == (100.0, 10.0)
        assert selection_strategy_analysis(rows, "longest") == (0.0, 50.0)
        accuracy, mean_length = selection_strategy_analysis(rows, "mean")
        assert accuracy == pytest.approx(50.0) and mean_length == pytest.approx(30.0)

    def test_degenerate_tie_picks_lowest_seed(self):
        rows = [record(seed=2, length=10, correct=False), record(seed=0, length=10, correct=True)]
        for strategy in ("shortest", "longest"):
            assert selection_strategy_analysis(rows, strategy) == (100.0, 10.0)

    def test_multiple_items_average(self):
        rows = [
            record(item_id="a", seed=0, length=5, correct=True),
            record(item_id="a", seed=1, length=9, correct=False),
            record(item_id="b", seed=0, length=7, correct=False),
            record(item_id="b", seed=1, length=3, correct=False),
        ]
        accuracy, mean_length = selection_strategy_analysis(rows, "shortest")
        assert accuracy == pytest.approx(50.0)
        assert mean_length == pytest.approx(4.0)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(InvalidInputError):
            selection_strategy_analysis([record()], "median")


class TestExportScatter:
    def test_row_count_and_header(self, tmp_path):
        rows = [record(seed=s, length=s + 1) for s in range(20)]
        path = tmp_path / "out.csv"
        export_scatter(rows, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 21
        assert lines[0] == "item_id,seed,method,length,correct"

    def test_all_correct_slope_zero(self, tmp_path):
        rows = [record(seed=s, length=10 * s + 1, correct=True) for s in range(10)]
        path = tmp_path / "flat.csv"
        export_scatter(rows, path)
        fit = json.loads((tmp_path / "flat.fit.json").read_text())
        assert fit["slope"] == 0.0 and fit["intercept"] == 1.0

    def test_declining_accuracy_negative_slope(self, tmp_path):
        rows = [record(seed=s, length=s, correct=s < 10) for s in range(20)]
        path = tmp_path / "decline.csv"
        export_scatter(rows, path)
        fit = json.loads((tmp_path / "decline.fit.json").read_text())
        assert fit["slope"] < 0

    def test_constant_length_slope_zero(self, tmp_path):
        rows = [record(seed=s, length=5, correct=s % 2 == 0) for s in range(4)]
        path = tmp_path / "const.csv"
        export_scatter(rows, path)
        fit = json.loads((tmp_path / "const.fit.json").read_text())
        assert fit["slope"] == 0.0
