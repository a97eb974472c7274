"""Command-line surface: run, eval, report, oracle, serve."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import DtsConfig, DtsError
from .engine import run_dts, run_standard
from .evalharness import (
    EvalRecord,
    aggregate_metrics,
    describe_error,
    export_scatter,
    load_dataset,
    read_records,
    run_eval,
    selection_strategy_analysis,
)
from .oracle import enumerate_tree
from .providers import NGramModel, PfsaModel, ProviderServer, RemoteProvider, ScriptedModel


def _add_provider_args(parser: argparse.ArgumentParser):
    parser.add_argument("--provider", required=True, choices=["scripted", "ngram", "pfsa", "remote"])
    parser.add_argument("--endpoint", help="remote provider base URL")
    parser.add_argument("--model-file", help="scripted or pfsa model JSON")
    parser.add_argument("--corpus", help="n-gram corpus: one whitespace-tokenized sequence per line")
    parser.add_argument("--order", type=int, help="n-gram order (default 2)")
    parser.add_argument("--alpha", type=float, help="additive smoothing (default 1.0)")


def _add_engine_args(parser: argparse.ArgumentParser):
    parser.add_argument("--tau", type=float, default=2.5, help="entropy threshold in nats; 'inf' disables branching")
    parser.add_argument("--k", type=int, default=3, help="branch fan-out")
    parser.add_argument("--temperature", type=float, default=0.6, help="applied by the engine to every provider's rows")
    parser.add_argument("--max-tokens", type=int, default=1024)
    parser.add_argument("--max-branches", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--end-tokens", help="comma-separated token ids; default: provider recommendation")


# the provider flags each provider reads; the first is required
_PROVIDER_FLAGS = {"remote": ("endpoint",), "scripted": ("model_file",), "pfsa": ("model_file",),
                   "ngram": ("corpus", "order", "alpha")}


def _build_provider(args):
    reads = _PROVIDER_FLAGS[args.provider]
    for name in ("endpoint", "model_file", "corpus", "order", "alpha"):
        flag = "--" + name.replace("_", "-")
        if name == reads[0] and not getattr(args, name):
            raise DtsError(f"{flag} is required for the {args.provider} provider")
        # a flag the provider does not read would silently do nothing
        if name not in reads and getattr(args, name) is not None:
            raise DtsError(f"{flag} is not read by the {args.provider} provider")
    if args.provider == "remote":
        return RemoteProvider(args.endpoint)
    if args.provider == "scripted":
        return ScriptedModel.from_file(args.model_file)
    if args.provider == "pfsa":
        return PfsaModel.from_file(args.model_file)
    lines = Path(args.corpus).read_text(encoding="utf-8").splitlines()
    return NGramModel.from_text_corpus(lines, n=2 if args.order is None else args.order,
                                       alpha=1.0 if args.alpha is None else args.alpha)


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise DtsError(f"{flag} takes comma-separated integers, got {text!r}") from None


def _build_config(args, provider) -> DtsConfig:
    if args.end_tokens:
        end_tokens = frozenset(_int_list(args.end_tokens, "--end-tokens"))
    else:
        end_tokens = provider.end_tokens
    return DtsConfig(
        tau=args.tau,
        k=args.k,
        temperature=args.temperature,
        max_tokens=args.max_tokens,
        max_branches=args.max_branches,
        seed=args.seed,
        end_tokens=end_tokens,
    )


def _prompt_tokens(args, provider):
    if args.prompt_file:
        text = Path(args.prompt_file).read_text(encoding="utf-8")
    else:
        text = args.prompt or ""
    return provider.encode(text)


def _cmd_run(args) -> int:
    provider = _build_provider(args)
    config = _build_config(args, provider)
    prompt = _prompt_tokens(args, provider)
    runner = run_standard if args.method == "standard" else run_dts
    result = runner(provider, prompt, config)
    print(json.dumps(result.to_json_dict(include_traces=args.trace)))
    return 0


def _cmd_eval(args) -> int:
    provider = _build_provider(args)
    config = _build_config(args, provider)
    dataset = load_dataset(args.dataset)
    seeds = _int_list(args.seeds, "--seeds")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    records = run_eval(dataset, provider, config, seeds, methods, out_path=args.out, jobs=args.jobs)
    print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    records = [record for _, record in read_records(args.records, EvalRecord)]
    table = aggregate_metrics(records)
    print(table.render_text())
    if args.strategy:
        accuracy, mean_length = selection_strategy_analysis(records, args.strategy)
        print(f"strategy {args.strategy}: accuracy {accuracy:.2f}%, mean length {mean_length:.2f}")
    if args.scatter:
        export_scatter(records, args.scatter)
        print(f"scatter written to {args.scatter}", file=sys.stderr)
    print(json.dumps(table.to_json_dict()))
    return 0


def _cmd_oracle(args) -> int:
    provider = _build_provider(args)
    prompt = _prompt_tokens(args, provider)
    paths = enumerate_tree(provider, prompt, max_len=args.max_len, prob_floor=args.prob_floor)
    with open(args.out, "w", encoding="utf-8") as fh:
        for path in paths:
            fh.write(json.dumps(path.to_json_dict()) + "\n")
    print(f"wrote {len(paths)} paths to {args.out}", file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
    if not 0 <= args.port <= 65535:
        raise DtsError(f"--port {args.port} is outside 0..65535")
    provider = _build_provider(args)
    server = ProviderServer(provider, host=args.host, port=args.port)
    print(f"serving {args.provider} provider on {server.url}", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dts", description="Entropy-gated decoding tree engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="decode one prompt and print the run result as JSON")
    _add_provider_args(p_run)
    _add_engine_args(p_run)
    p_run.add_argument("--prompt", help="inline prompt text")
    p_run.add_argument("--prompt-file", help="file holding the prompt text")
    p_run.add_argument("--method", choices=["dts", "standard"], default="dts")
    p_run.add_argument("--trace", action="store_true", help="include per-step traces in the output")
    p_run.set_defaults(func=_cmd_run)

    p_eval = sub.add_parser("eval", help="evaluate a JSONL dataset and stream records")
    _add_provider_args(p_eval)
    _add_engine_args(p_eval)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--methods", default="dts,standard")
    p_eval.add_argument("--seeds", default="0,1,2,3,4")
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--jobs", type=int, default=1)
    p_eval.set_defaults(func=_cmd_eval)

    p_report = sub.add_parser("report", help="aggregate a records file into a metrics table")
    p_report.add_argument("--records", required=True)
    p_report.add_argument("--strategy", choices=["shortest", "longest", "mean"])
    p_report.add_argument("--scatter", help="write a scatter CSV (plus .fit.json sidecar)")
    p_report.set_defaults(func=_cmd_report)

    p_oracle = sub.add_parser("oracle", help="enumerate the decoding tree exhaustively")
    _add_provider_args(p_oracle)
    p_oracle.add_argument("--prompt", help="inline prompt text")
    p_oracle.add_argument("--prompt-file", help="file holding the prompt text")
    p_oracle.add_argument("--max-len", type=int, required=True)
    p_oracle.add_argument("--prob-floor", type=float, default=0.0)
    p_oracle.add_argument("--out", required=True)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_serve = sub.add_parser("serve", help="expose a local provider over the wire protocol")
    _add_provider_args(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8321)
    p_serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # a file that is not UTF-8 raises UnicodeDecodeError, a ValueError
    except (DtsError, OSError, UnicodeDecodeError) as exc:
        # the cause says why, as in "provider failed at step 7 <- TransportError: ..."
        cause = "" if exc.__cause__ is None else f" <- {describe_error(exc.__cause__)}"
        print(f"error: {exc}{cause}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
