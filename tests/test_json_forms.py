"""The exact bytes the program writes as JSON, pinned as literal strings.

``dts run`` prints a ``RunResult``, ``dts oracle`` writes ``EnumeratedPath``
lines, ``dts eval`` streams ``EvalRecord`` lines and ``dts report`` prints a
metrics table. A change to the JSON writer must leave every one of these
strings as it is.
"""

import json

from dts import DtsConfig, PfsaModel, enumerate_tree, run_dts
from dts.evalharness import EvalRecord, aggregate_metrics


def two_state_pfsa():
    # state 1 ends with probability 1/2, so a fork child wins at step 1
    return PfsaModel(
        initial_state=0,
        emissions={0: [0.5, 0.25, 0.25, 0.0], 1: [0.0, 0.0, 0.5, 0.5]},
        transitions={0: {0: 0, 1: 1, 2: 0}, 1: {2: 0}},
        end_tokens=[3],
    )


RUN_OUTPUT = (
    '"output": {"tokens": [1, 3], "cumulative_logprob": -2.0794415416798357, "finished": true, '
    '"branch_id": 3, "parent_branch_id": 1, "fork_step": 1}, "terminated": true, "steps_executed": 2, '
    '"peak_frontier_size": 4, "total_branch_events": 3'
)
RUN_TRACES = (
    '"traces": [{"step": 0, "branch_id": 0, "entropy": 1.0397207708399179, "branched": true, '
    '"chosen_tokens": [0, 1]}, {"step": 1, "branch_id": 0, "entropy": 1.0397207708399179, '
    '"branched": true, "chosen_tokens": [0, 1]}, {"step": 1, "branch_id": 1, '
    '"entropy": 0.6931471805599453, "branched": true, "chosen_tokens": [2, 3]}]'
)


def test_run_result_bytes():
    model = two_state_pfsa()
    config = DtsConfig(tau=0.5, k=2, temperature=1.0, max_tokens=6, end_tokens=model.end_tokens, seed=4)
    traced = run_dts(model, [0], config, trace=True)
    assert json.dumps(traced.to_json_dict()) == "{" + RUN_OUTPUT + ", " + RUN_TRACES + "}"
    assert json.dumps(run_dts(model, [0], config).to_json_dict()) == "{" + RUN_OUTPUT + "}"


def test_enumerated_path_bytes():
    geometric = PfsaModel(initial_state="s", emissions={"s": [0.75, 0.25]}, transitions={"s": {0: "s"}},
                          end_tokens=[1])
    assert [json.dumps(path.to_json_dict()) for path in enumerate_tree(geometric, [], max_len=3)] == [
        '{"tokens": [0, 0, 1], "probability": 0.140625, "length": 3}',
        '{"tokens": [0, 1], "probability": 0.1875, "length": 2}',
        '{"tokens": [1], "probability": 0.25, "length": 1}',
    ]


def records():
    return [
        EvalRecord(item_id="q1", seed=2, method="dts", correct=True, length=7, terminated=True,
                   repetition=False, wall_time=0.125),
        EvalRecord(item_id="q1", seed=2, method="standard", correct=False, length=0, terminated=False,
                   repetition=False, wall_time=0.5, error="ProviderError: x"),
    ]


def test_eval_record_bytes():
    assert [json.dumps(record.to_json_dict()) for record in records()] == [
        '{"item_id": "q1", "seed": 2, "method": "dts", "correct": true, "length": 7, "terminated": true, '
        '"repetition": false, "wall_time": 0.125, "error": null}',
        '{"item_id": "q1", "seed": 2, "method": "standard", "correct": false, "length": 0, '
        '"terminated": false, "repetition": false, "wall_time": 0.5, "error": "ProviderError: x"}',
    ]


def test_metrics_table_bytes():
    assert json.dumps(aggregate_metrics(records()).to_json_dict()) == (
        '{"per_method": {"dts": {"runs": 1, "accuracy": 100.0, "mean_length": 7.0, "repetition_rate": 0.0}, '
        '"standard": {"runs": 1, "accuracy": 0.0, "mean_length": 0.0, "repetition_rate": 0.0}}, '
        '"deltas": {"accuracy_points": 100.0, "length_pct": null, "repetition_points": 0.0}}'
    )
