import json

import pytest

from dts.cli import main

from support import crafted_server, one_hot_logits


@pytest.fixture()
def scripted_file(tmp_path):
    payload = [
        {"suffix": [0], "logits": one_hot_logits(3, 1, scale=40.0)},
        {"suffix": [1], "logits": one_hot_logits(3, 2, scale=40.0)},
        {"default": one_hot_logits(3, 0, scale=40.0)},
        {"end_tokens": [2]},
        {"vocab": ["go", "\\boxed{7}", "<e>"]},
    ]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def pfsa_file(tmp_path):
    payload = {
        "initial_state": "s0",
        "end_tokens": [2],
        "states": {
            "s0": {"emissions": [0.6, 0.3, 0.1], "transitions": {"0": "s0", "1": "s0"}},
        },
    }
    path = tmp_path / "pfsa.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a b a b a b\nb a b a\na a b <e>\n")
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_scripted_run_outputs_result_json(self, capsys, scripted_file):
        code, out, _ = run_cli(capsys, [
            "run", "--provider", "scripted", "--model-file", scripted_file,
            "--tau", "2.5", "--k", "2", "--temperature", "1.0",
            "--max-tokens", "8", "--seed", "3",
        ])
        assert code == 0
        result = json.loads(out)
        assert result["terminated"] is True
        assert result["output"]["tokens"] == [0, 1, 2]
        assert "traces" not in result

    def test_trace_flag_includes_traces(self, capsys, scripted_file):
        code, out, _ = run_cli(capsys, [
            "run", "--provider", "scripted", "--model-file", scripted_file,
            "--max-tokens", "8", "--trace",
        ])
        assert code == 0
        result = json.loads(out)
        assert len(result["traces"]) == result["steps_executed"]

    def test_byte_identical_across_invocations(self, capsys, corpus_file):
        argv = [
            "run", "--provider", "ngram", "--corpus", corpus_file, "--order", "2",
            "--tau", "0.8", "--k", "2", "--temperature", "1.0",
            "--max-tokens", "24", "--seed", "11", "--trace",
        ]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_standard_method(self, capsys, corpus_file):
        code, out, _ = run_cli(capsys, [
            "run", "--provider", "ngram", "--corpus", corpus_file,
            "--method", "standard", "--max-tokens", "16", "--seed", "2",
        ])
        assert code == 0
        assert json.loads(out)["total_branch_events"] == 0

    def test_infinite_tau_accepted(self, capsys, corpus_file):
        code, out, _ = run_cli(capsys, [
            "run", "--provider", "ngram", "--corpus", corpus_file,
            "--tau", "inf", "--max-tokens", "12",
        ])
        assert code == 0
        assert json.loads(out)["total_branch_events"] == 0

    def test_prompt_file(self, capsys, tmp_path, corpus_file):
        prompt = tmp_path / "prompt.txt"
        prompt.write_text("a b")
        code, out, _ = run_cli(capsys, [
            "run", "--provider", "ngram", "--corpus", corpus_file,
            "--prompt-file", str(prompt), "--max-tokens", "8", "--seed", "1",
        ])
        assert code == 0 and json.loads(out)["steps_executed"] >= 1

    def test_missing_model_file_is_clean_error(self, capsys):
        code, _, err = run_cli(capsys, ["run", "--provider", "scripted", "--max-tokens", "4"])
        assert code == 1 and "model-file" in err

    def test_temperature_changes_a_pfsa_run(self, capsys, pfsa_file):
        argv = ["run", "--provider", "pfsa", "--model-file", pfsa_file, "--tau", "0.5", "--seed", "4"]
        outputs = [run_cli(capsys, argv + ["--temperature", t])[1] for t in ("0.3", "1.0")]
        assert outputs[0] != outputs[1]

    def test_infinite_temperature_is_clean_error(self, capsys, pfsa_file):
        code, out, err = run_cli(capsys, [
            "run", "--provider", "pfsa", "--model-file", pfsa_file, "--temperature", "inf",
        ])
        assert code == 1 and out == ""
        assert err.startswith("error: temperature must be finite")

    @pytest.mark.parametrize("provider,flag,value", [
        ("pfsa", "--endpoint", "http://127.0.0.1:9"),
        ("pfsa", "--corpus", "/nonexistent"),
        ("pfsa", "--order", "7"),
        ("pfsa", "--alpha", "-3"),
        ("ngram", "--model-file", "model.json"),
        ("ngram", "--endpoint", "http://127.0.0.1:9"),
    ])
    def test_flag_the_provider_does_not_read_is_clean_error(self, capsys, pfsa_file, corpus_file,
                                                           provider, flag, value):
        source = ["--model-file", pfsa_file] if provider == "pfsa" else ["--corpus", corpus_file]
        code, out, err = run_cli(capsys, ["run", "--provider", provider, *source, flag, value, "--k", "2"])
        assert code == 1 and out == ""
        assert err == f"error: {flag} is not read by the {provider} provider\n"

    def test_ngram_order_and_alpha_are_read(self, capsys, corpus_file):
        argv = ["run", "--provider", "ngram", "--corpus", corpus_file, "--max-tokens", "12", "--tau", "inf"]
        default = run_cli(capsys, argv)
        assert default == run_cli(capsys, argv + ["--order", "2", "--alpha", "1.0"])
        assert default[1] != run_cli(capsys, argv + ["--order", "1", "--alpha", "0.01"])[1]

    def test_bad_end_tokens_is_clean_error(self, capsys, pfsa_file):
        code, out, err = run_cli(capsys, [
            "run", "--provider", "pfsa", "--model-file", pfsa_file, "--end-tokens", "x",
        ])
        assert code == 1 and out == ""
        assert err.startswith("error: --end-tokens")


class TestFilesFailCleanly:
    @pytest.mark.parametrize("argv", [
        ["report", "--records", "{missing}"],
        ["eval", "--provider", "pfsa", "--model-file", "{pfsa}", "--dataset", "{missing}", "--out", "{out}"],
        ["run", "--provider", "pfsa", "--model-file", "{missing}"],
        ["run", "--provider", "ngram", "--corpus", "{missing}"],
    ], ids=["records", "dataset", "model-file", "corpus"])
    def test_missing_file(self, capsys, tmp_path, pfsa_file, argv):
        names = {"missing": str(tmp_path / "missing"), "pfsa": pfsa_file, "out": str(tmp_path / "out")}
        code, out, err = run_cli(capsys, [arg.format(**names) for arg in argv])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "missing" in err

    @pytest.mark.parametrize("provider,content", [
        ("pfsa", {"end_tokens": [1], "states": {"s0": {"emissions": [0.5, 0.5]}}}),
        ("pfsa", "{not json"),
        ("scripted", "{not json"),
        ("pfsa", {"initial_state": "s0", "end_tokens": [1], "states": {"s0": {"emissions": 5}}}),
        ("scripted", [{"default": [0, 0, 0]}, {"suffix": 1, "logits": [0, 0, 0]}]),
        ("pfsa", {"initial_state": "s0", "end_tokens": [1], "vocab": "ab",
                  "states": {"s0": {"emissions": [0.5, 0.5], "transitions": {"0": "s0"}}}}),
        ("pfsa", {"initial_state": "s0", "end_tokens": [1], "vocab": {"a": 0, "b": 1},
                  "states": {"s0": {"emissions": [0.5, 0.5], "transitions": {"0": "s0"}}}}),
    ], ids=["pfsa-without-initial-state", "pfsa-not-json", "scripted-not-json",
            "pfsa-emissions-not-a-list", "scripted-suffix-not-a-list", "pfsa-vocab-a-string",
            "pfsa-vocab-an-object"])
    def test_malformed_model_file_names_the_file(self, capsys, tmp_path, provider, content):
        path = tmp_path / "model.json"
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        code, out, err = run_cli(capsys, ["run", "--provider", provider, "--model-file", str(path)])
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: ")


    @pytest.mark.parametrize("provider,content", [
        ("scripted", [{"default": ["a", 0, 0]}]),
        ("pfsa", {"initial_state": "s0", "end_tokens": [1],
                  "states": {"s0": {"emissions": [0.5, "x"], "transitions": {"0": "s0"}}}}),
        # numpy would read these as [1, 1, 0] and [0.5, 0.5, 0], and the run would go on
        ("scripted", [{"default": ["1", True, 0]}]),
        ("pfsa", {"initial_state": "s0", "end_tokens": [2],
                  "states": {"s0": {"emissions": ["0.5", 0.5, False], "transitions": {"0": "s0", "1": "s0"}}}}),
    ], ids=["scripted-logit", "pfsa-emission", "scripted-string-and-bool", "pfsa-string-and-bool"])
    def test_non_numeric_model_value_is_clean_error(self, capsys, tmp_path, provider, content):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(content))
        code, out, err = run_cli(capsys, ["run", "--provider", provider, "--model-file", str(path)])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "must be numbers" in err

    @pytest.mark.parametrize("argv", [
        ["run", "--provider", "ngram", "--corpus", "{bad}"],
        ["run", "--provider", "pfsa", "--model-file", "{pfsa}", "--prompt-file", "{bad}"],
        ["eval", "--provider", "pfsa", "--model-file", "{pfsa}", "--dataset", "{bad}", "--out", "{out}"],
        ["report", "--records", "{bad}"],
    ], ids=["corpus", "prompt-file", "dataset", "records"])
    def test_file_that_is_not_utf8(self, capsys, tmp_path, pfsa_file, argv):
        bad = tmp_path / "bad"
        bad.write_bytes(bytes(range(128, 256)) * 2)
        names = {"bad": str(bad), "pfsa": pfsa_file, "out": str(tmp_path / "out")}
        code, out, err = run_cli(capsys, [arg.format(**names) for arg in argv])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "utf-8" in err


class TestEvalAndReport:
    def test_end_to_end_flow(self, capsys, tmp_path, scripted_file):
        dataset = tmp_path / "items.jsonl"
        rows = [{"id": f"q{i}", "prompt": "", "answer": "7"} for i in range(3)]
        dataset.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        records_path = tmp_path / "records.jsonl"

        code, _, err = run_cli(capsys, [
            "eval", "--provider", "scripted", "--model-file", scripted_file,
            "--dataset", str(dataset), "--methods", "dts,standard",
            "--seeds", "0,1", "--max-tokens", "8", "--out", str(records_path),
        ])
        assert code == 0 and "12 records" in err
        assert len(records_path.read_text().strip().splitlines()) == 12

        scatter = tmp_path / "scatter.csv"
        code, out, _ = run_cli(capsys, [
            "report", "--records", str(records_path),
            "--strategy", "shortest", "--scatter", str(scatter),
        ])
        assert code == 0
        assert "strategy shortest: accuracy 100.00%" in out
        table = json.loads(out.strip().splitlines()[-1])
        assert table["per_method"]["dts"]["accuracy"] == 100.0
        assert table["deltas"]["accuracy_points"] == 0.0
        assert len(scatter.read_text().strip().splitlines()) == 13
        assert (tmp_path / "scatter.fit.json").exists()

    def test_bad_seeds_is_clean_error(self, capsys, tmp_path, scripted_file):
        dataset = tmp_path / "items.jsonl"
        dataset.write_text(json.dumps({"id": "q0", "prompt": "", "answer": "7"}) + "\n")
        code, _, err = run_cli(capsys, [
            "eval", "--provider", "scripted", "--model-file", scripted_file,
            "--dataset", str(dataset), "--seeds", "x", "--out", str(tmp_path / "records.jsonl"),
        ])
        assert code == 1 and err.startswith("error: --seeds")

    def test_jobs_below_one_is_clean_error(self, capsys, tmp_path, scripted_file):
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(json.dumps({"id": "a", "prompt": "go", "answer": "7"}) + "\n")
        code, _, err = run_cli(capsys, [
            "eval", "--provider", "scripted", "--model-file", scripted_file, "--dataset", str(dataset),
            "--out", str(tmp_path / "records.jsonl"), "--jobs", "-4",
        ])
        assert code == 1 and err.startswith("error: jobs must be >= 1")

    def test_report_rejects_string_bool(self, capsys, tmp_path):
        line = {
            "item_id": "q1", "seed": 0, "method": "dts", "correct": "false", "length": 3,
            "terminated": True, "repetition": False, "wall_time": 0.1,
        }
        records_path = tmp_path / "records.jsonl"
        records_path.write_text(json.dumps(line) + "\n")
        code, out, err = run_cli(capsys, ["report", "--records", str(records_path)])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "'false'" in err

    @pytest.mark.parametrize("wall_time", [True, "nan"])
    def test_report_rejects_a_wall_time_that_is_not_a_number(self, capsys, tmp_path, wall_time):
        line = {
            "item_id": "q1", "seed": 0, "method": "dts", "correct": True, "length": 3,
            "terminated": True, "repetition": False, "wall_time": wall_time,
        }
        records_path = tmp_path / "records.jsonl"
        records_path.write_text(json.dumps(line) + "\n")
        code, out, err = run_cli(capsys, ["report", "--records", str(records_path)])
        assert code == 1 and out == ""
        assert err.startswith(f"error: {records_path}: line 1: ")

    @pytest.mark.parametrize("bad_line", ["missing length", "not json"])
    def test_report_names_the_bad_line(self, capsys, tmp_path, bad_line):
        line = {
            "item_id": "q1", "seed": 0, "method": "dts", "correct": True, "length": 3,
            "terminated": True, "repetition": False, "wall_time": 0.1,
        }
        broken = dict(line)
        del broken["length"]
        records_path = tmp_path / "records.jsonl"
        second = json.dumps(broken) if bad_line == "missing length" else "{not json"
        records_path.write_text(json.dumps(line) + "\n" + second + "\n")
        code, out, err = run_cli(capsys, ["report", "--records", str(records_path)])
        assert code == 1 and out == ""
        assert err.startswith(f"error: {records_path}: line 2: ")


class TestOracle:
    def test_jsonl_output(self, capsys, tmp_path, scripted_file):
        out_path = tmp_path / "paths.jsonl"
        code, _, err = run_cli(capsys, [
            "oracle", "--provider", "scripted", "--model-file", scripted_file,
            "--max-len", "5", "--out", str(out_path),
        ])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        rows = [json.loads(line) for line in lines]
        assert {"tokens", "probability", "length"} <= set(rows[0])
        assert any(row["tokens"] == [0, 1, 2] for row in rows)

    def test_prob_floor_flag(self, capsys, tmp_path, scripted_file):
        out_path = tmp_path / "paths.jsonl"
        code, _, _ = run_cli(capsys, [
            "oracle", "--provider", "scripted", "--model-file", scripted_file,
            "--max-len", "5", "--prob-floor", "0.5", "--out", str(out_path),
        ])
        assert code == 0
        rows = [json.loads(l) for l in out_path.read_text().strip().splitlines()]
        assert all(row["probability"] >= 0.5 for row in rows)

    @pytest.mark.parametrize("command", ["oracle", "run"])
    def test_malformed_remote_step_response_is_clean_error(self, capsys, tmp_path, command):
        meta = {"vocab_size": 2, "end_tokens": [1], "kind": "logprobs"}
        server, url = crafted_server(meta, {"distributions": [{"branch_id": 0}]})
        argv = {
            "oracle": ["--max-len", "3", "--out", str(tmp_path / "paths.jsonl")],
            # the engine wraps the protocol error; the message must still name it
            "run": ["--k", "2", "--max-tokens", "3"],
        }[command]
        try:
            code, out, err = run_cli(capsys, [command, "--provider", "remote", "--endpoint", url, *argv])
        finally:
            server.shutdown()
            server.server_close()
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "malformed step payload" in err


class TestServe:
    @pytest.mark.parametrize("port", ["99999", "-5"])
    def test_port_out_of_range_is_clean_error(self, capsys, pfsa_file, port):
        code, _, err = run_cli(capsys, ["serve", "--provider", "pfsa", "--model-file", pfsa_file, "--port", port])
        assert code == 1
        assert err.startswith(f"error: --port {port} ")
