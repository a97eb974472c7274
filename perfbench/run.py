"""Decode benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload tree-long --seed 3 --seconds 28 --trace 0
    python3 perfbench/run.py --trace 1          # every workload in turn
    python3 perfbench/run.py --write-golden     # after a deliberate output change

One client sends each request only after the previous one returned.
``--trace 0`` sets the workload up, sends its requests in passes for
``--seconds`` with nothing wrapped, sets it up once more before each pass
(``setup_s`` is the median of all set-ups), and reports the end-to-end
metrics over every request sent: ``run_ms_p50`` is the median over the
request list of each request's mean time, ``run_ms_tail`` a percentile of
the single samples, and the rates are totals over the time spent in
requests.
``--trace 1`` makes one warm-up pass, then alternates whole untraced and
traced passes until ``--seconds`` have gone by, and reports per-layer
metrics from the traced passes plus the tracing overhead against the
untraced ones.

Every result is checked by the golden-output gate: against the stored
digests of ``golden.json`` for the seeds stored there, otherwise against
its first occurrence and a set of invariants, and in every run with
another seed the first default-seed request is re-checked against
``golden.json`` too. A request that raises or mismatches counts as failed.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
machine stamp, the workload shape, the sample count and tail percentile,
and ``fail_rate``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")
GOLDEN_SEEDS = (0, 1)
# set-up is repeated at least this many times; setup_s is the median
SETUP_REPEATS = 5
PROBE_REQUESTS = 1
TAIL_BEYOND = 10


def digest(record: dict) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True, separators=(",", ":")).encode()).hexdigest()[:32]


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its rank.

    Runs too short for that percentile to lie above the median report the
    median instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, (n - 1) // 2)
    return ordered[k], 100.0 * (k + 1) / n


def per(a, b) -> float:
    return a / b if b else 0.0


class Gate:
    """Golden-output gate: every result must match its reference digest.

    The reference of request ``i`` is the stored golden entry ("<digest>
    <rows>") when one is given, else the first result seen for ``i``, which
    must also pass the workload's invariants. Rows per request come from
    the reference.
    """

    def __init__(self, inst, golden=None):
        self.inst = inst
        self.golden = golden
        self.refs: dict[int, tuple[str, bool]] = {}
        self.rows: dict[int, int] = {}
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, i, message):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{self.inst.workload.name} request {i}: {message}")

    def error(self, i, exc):
        self.attempted += 1
        self._fail(i, f"raised {type(exc).__name__}: {exc}")

    def check(self, i, record):
        self.attempted += 1
        if i not in self.refs:
            problems = self.inst.check(record, i)
            for p in problems:
                self._fail(i, p)
            ref, rows = self.golden[i].split() if self.golden else (digest(record), record["rows"])
            self.refs[i] = (ref, not problems)
            self.rows[i] = int(rows)
            if self.first is None:
                self.first = (i, record)
            if problems:
                return
        if not self.matches(i, record):
            self._fail(i, "output differs from the reference digest" if self.refs[i][1] else "invariants failed")

    def matches(self, i, record) -> bool:
        ref, ok = self.refs[i]
        return ok and digest(record) == ref


class Phase:
    """Per-request wall times of one stretch of the closed loop."""

    def __init__(self):
        self.times: list[float] = []
        self.indices: list[int] = []
        self.extras: list[dict] = []

    def rows(self, gate) -> int:
        return sum(gate.rows.get(i, 0) for i in self.indices)

    def total(self, key) -> int:
        return sum(e.get(key, 0) for e in self.extras)

    def median_of_means(self) -> float:
        """The median over the request list of each request's mean time.

        Every request repeats once a pass; averaging its repeats first
        spreads the host's drift over the whole run, where the median of
        the raw samples would follow whichever seconds the middle samples
        fell in.
        """
        by_request: dict[int, list[float]] = {}
        for i, t in zip(self.indices, self.times):
            by_request.setdefault(i, []).append(t)
        return statistics.median(statistics.fmean(ts) for ts in by_request.values())


def closed_loop(inst, gate, limit=None, seconds=None, renew=True, between=None) -> Phase:
    """Send the requests in order, in passes, ``limit`` of them or for ``seconds``.

    With ``renew`` each pass starts on a fresh provider. ``between()`` runs
    before each pass and returns the seconds it took, which do not count
    against ``seconds``. A timed loop always completes its first pass.
    """
    phase = Phase()
    n = len(inst.reqs)
    deadline = perf_counter() + seconds if seconds is not None else math.inf
    sent = 0
    while (limit is None or sent < limit) and (sent < n or perf_counter() < deadline):
        i = sent % n
        if i == 0 and renew:
            inst.new_pass()
        if i == 0 and between is not None:
            deadline += between()
        start = perf_counter()
        try:
            record, extras = inst.run(i)
        except Exception as exc:
            phase.times.append(perf_counter() - start)
            phase.extras.append({})
            gate.error(i, exc)
        else:
            phase.times.append(perf_counter() - start)
            phase.extras.append(extras)
            gate.check(i, record)
        phase.indices.append(i)
        sent += 1
    return phase


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def probe(wl, golden, tmpdir) -> Gate:
    """Re-check the first default-seed requests against the stored digests."""
    inst = wl.setup(GOLDEN_SEEDS[0], tmpdir)
    try:
        gate = Gate(inst, golden[wl.name][str(GOLDEN_SEEDS[0])])
        closed_loop(inst, gate, limit=PROBE_REQUESTS)
    finally:
        inst.close()
    return gate


def self_check(wl, gate):
    """The gate must reject a deliberately perturbed copy of a passing result."""
    if gate.first is None:
        return
    i, record = gate.first
    if gate.matches(i, wl.perturb(record)):
        sys.exit("perfbench: the golden gate accepted a perturbed result")


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(), "numpy": numpy.__version__}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(wl, args, tmpdir, golden_runs):
    setup_s = []

    def set_up():
        start = perf_counter()
        inst = wl.setup(args.seed, tmpdir)
        setup_s.append(perf_counter() - start)
        return inst

    def set_up_again() -> float:
        set_up().close()
        return setup_s[-1]

    inst = set_up()
    try:
        gate = Gate(inst, golden_runs)
        # one more set-up before each pass: the host's speed drifts over
        # seconds, and set-ups spread over the run see the same drift as
        # its requests
        phase = closed_loop(inst, gate, seconds=args.seconds, between=set_up_again)
    finally:
        inst.close()
    while len(setup_s) < SETUP_REPEATS:
        set_up_again()
    busy = sum(phase.times)
    value, rank = tail(phase.times)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "run_ms_p50": (phase.median_of_means() * 1e3, "ms"),
        "run_ms_tail": (value * 1e3, "ms"),
        "rows_per_s": (phase.rows(gate) / busy, "rows/s"),
        "runs_per_s": (phase.total("runs") / busy, "runs/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return gate, metrics, {"requests": len(phase.times), "passes": len(phase.times) // len(inst.reqs),
                           "tail_percentile": round(rank, 2), "setups": len(setup_s)}


def traced(wl, args, tmpdir, golden_runs):
    from tracing import Tracer

    tracer = Tracer()
    plain, traced_phases = [], []
    inst = wl.setup(args.seed, tmpdir)
    try:
        gate = Gate(inst, golden_runs)
        n = len(inst.reqs)
        # an untimed first pass keeps first-call costs out of both sides
        closed_loop(inst, gate, limit=n)
        deadline = perf_counter() + args.seconds
        while not (plain and perf_counter() >= deadline):
            plain.append(closed_loop(inst, gate, limit=n))
            # renewed outside the tracer, so building it is not traced
            inst.new_pass()
            with tracer.installed(inst.provider, inst.session):
                traced_phases.append(closed_loop(inst, gate, limit=n, renew=False))
    finally:
        inst.close()
    missing = tracer.missing(wl.predicted)
    if missing:
        sys.exit(f"perfbench: traced {wl.name} recorded no call to {', '.join(missing)}")
    metrics = per_layer(tracer, traced_phases, plain, gate, inst.server_totals)
    return gate, metrics, {"requests": sum(len(p.times) for p in traced_phases), "passes": len(traced_phases)}


def per_layer(tracer, phases, plain, gate, server_totals) -> dict:
    s, c = tracer.spans, tracer.counts
    reqs = sum(len(p.times) for p in phases)
    rows = sum(p.rows(gate) for p in phases)
    runs = sum(p.total("runs") for p in phases)
    errors = sum(p.total("errors") for p in phases)
    decode = s["run_dts"].total + s["run_standard"].total
    engine_self = s["run_dts"].self_time + s["run_standard"].self_time
    engine = engine_self + s["expand_frontier"].self_time + s["apply_budget"].self_time
    branch = sum(s[n].self_time for n in ("branch_function", "entropy", "top_k_tokens", "sample_token"))
    steps = s["provider"].count
    http = tracer.http_ms
    remote = bool(http)
    http_p50 = statistics.median(http) if http else 0.0
    server = server_totals or {"seconds": 0.0, "rows": 0}
    us = 1e6

    def mean_us(name):
        return per(s[name].self_time, s[name].count) * us

    return {
        "engine.expand_us_per_row": (per(s["expand_frontier"].self_time, rows) * us, "us/row"),
        "engine.budget_us_per_row": (per(s["apply_budget"].self_time, rows) * us, "us/row"),
        "engine.self_us_per_row": (per(engine_self, rows) * us, "us/row"),
        "engine.decode_share": (per(engine, decode), "frac"),
        "engine.rows": (per(rows, reqs), "count/req"),
        "engine.steps": (per(steps, reqs), "count/req"),
        "engine.peak_frontier": (per(sum(tracer.peaks), len(tracer.peaks)), "count/run"),
        "engine.budget_demotions": (per(c["demotions"], reqs), "count/req"),
        "engine.trace_rows": (per(c["trace_rows"], reqs), "count/req"),
        "branching.decide_us_per_row": (mean_us("branch_function"), "us/row"),
        "branching.entropy_us": (mean_us("entropy"), "us"),
        "branching.topk_us": (mean_us("top_k_tokens"), "us"),
        "branching.sample_us": (mean_us("sample_token"), "us"),
        "branching.fork_frac": (per(c["forks"], s["branch_function"].count), "frac"),
        "branching.decode_share": (per(branch, decode), "frac"),
        "rng.draws": (per(c["draws"], reqs), "count/req"),
        "core.dist_us": (mean_us("TokenDistribution"), "us"),
        "core.dist_builds": (per(s["TokenDistribution"].count, reqs), "count/req"),
        "provider.us_per_row": (per(s["provider"].self_time, rows) * us, "us/row"),
        "provider.calls": (per(steps, reqs), "count/req"),
        "provider.rows": (per(rows, reqs), "count/req"),
        "remote.http_ms_p50": (http_p50, "ms"),
        "remote.http_ms_tail": (tail(http)[0] if http else 0.0, "ms"),
        "remote.http_step_share": (per(http_p50, per(decode * 1e3, steps)) if remote else 0.0, "frac"),
        # the remote provider's own time: building the request, parsing the reply
        "remote.parse_us_per_row": (per(s["provider"].self_time, rows) * us if remote else 0.0, "us/row"),
        "remote.req_bytes_per_step": (per(c["req_bytes"], len(http)), "B"),
        "remote.resp_bytes_per_step": (per(c["resp_bytes"], len(http)), "B"),
        "remote.retry_frac": (per(c["http_failures"], len(http) + c["http_failures"]), "frac"),
        "server.values_us_per_row": (per(server["seconds"], server["rows"]) * us, "us/row"),
        "eval.self_us_per_record": (per(s["run_eval"].self_time, runs) * us, "us/record"),
        "eval.decode_share": (per(decode, s["run_eval"].total), "frac"),
        "eval.records": (per(runs, reqs) if s["run_eval"].count else 0.0, "count/req"),
        "eval.error_records": (per(errors, reqs), "count/req"),
        "trace.overhead_frac": (per(sum(sum(p.times) for p in phases), sum(sum(p.times) for p in plain)) - 1.0,
                                "frac"),
    }


def write_golden(names, tmpdir):
    from workloads import WORKLOADS

    golden = load_golden() if os.path.exists(GOLDEN) else {}
    for name in names:
        wl = WORKLOADS[name]
        golden[name] = {}
        for seed in GOLDEN_SEEDS:
            inst = wl.setup(seed, tmpdir)
            try:
                gate = Gate(inst)
                closed_loop(inst, gate, limit=len(inst.reqs))
            finally:
                inst.close()
            if gate.failed:
                sys.exit("perfbench: not writing golden outputs that fail:\n" + "\n".join(gate.problems))
            golden[name][str(seed)] = [f"{gate.refs[i][0]} {gate.rows[i]}" for i in sorted(gate.refs)]
            print(f"{name} seed {seed}: {len(gate.refs)} requests", file=sys.stderr)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    from srcpath import use_checkout_source

    use_checkout_source()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="store digests for the golden seeds of --workload (default: all)")
    args = parser.parse_args(argv)

    if args.workload is None and not args.write_golden:
        # every workload in a process of its own, so peak_rss_mb stays per workload
        codes = [
            subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in WORKLOADS
        ]
        return max(codes)

    tmpdir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmpdir)
    try:
        if args.write_golden:
            write_golden([args.workload] if args.workload else sorted(WORKLOADS), tmpdir)
            return 0
        wl = WORKLOADS[args.workload]
        golden = load_golden()
        golden_runs = golden[wl.name].get(str(args.seed))
        measure = traced if args.trace else end_to_end
        gate, metrics, info = measure(wl, args, tmpdir, golden_runs)
        checks = [gate]
        if golden_runs is None:
            checks.append(probe(wl, golden, tmpdir))
        self_check(wl, gate)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        parent = os.path.dirname(tmpdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    attempted = sum(g.attempted for g in checks)
    failed = sum(g.failed for g in checks)
    problems = [p for g in checks for p in g.problems]
    report = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "machine": machine(), "shape": wl.shape, "golden": golden_runs is not None,
        "fail_rate": per(failed, attempted), **info, "problems": problems,
    }
    for name, (value, unit) in metrics.items():
        print(f"{wl.name:16} {name:28} {value:14.4f} {unit}")
    print(f"{wl.name:16} {'fail_rate':28} {report['fail_rate']:14.4f} frac ({failed}/{attempted})")
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
