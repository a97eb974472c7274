"""Layer spans for the traced run, taken from outside the program.

:meth:`Tracer.installed` swaps timing wrappers in for the module-level
names the engine and the harness call (``dts.engine``, ``dts.branching``,
``dts.evalharness``), for ``TokenDistribution`` construction, for the
provider proxy handed to the engine and for the HTTP session handed to
``RemoteProvider``; on exit it puts every original back and checks that it
did. Spans nest: a layer's self time is its duration minus the time of the
spans it caused. Totals are kept per span name in memory and turned into
metrics when the run ends.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

from dts import SplitMix64, branching, core, engine, evalharness


class CountingRng(SplitMix64):
    """The engine's generator, counting its draws into ``counts``."""

    def __init__(self, seed: int, counts: dict):
        super().__init__(seed)
        self.counts = counts

    def uniform(self):
        self.counts["draws"] += 1
        return SplitMix64.uniform(self)


class Span:
    __slots__ = ("count", "total", "self_time")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = defaultdict(Span)
        # time taken by the children of each open span; the bottom entry is
        # a sentinel for the benchmark's own frame
        self._stack = [0.0]
        self._patches: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: list[int] = []
        self.http_ms: list[float] = []

    def timed(self, name, fn, after=None):
        """Wrap ``fn`` in span ``name``; ``after(args, result)`` sees each result."""
        span, stack = self.spans[name], self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                span.count += 1
                span.total += elapsed
                span.self_time += elapsed - stack.pop()
                stack[-1] += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def patch(self, owner, attr, name, after=None, inner=None):
        own = vars(owner).get(attr)
        wrapper = self.timed(name, inner or getattr(owner, attr), after)
        self._patches.append((owner, attr, own, wrapper))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, own, wrapper = self._patches.pop()
            if vars(owner).get(attr) is not wrapper:
                raise RuntimeError(f"{attr} was replaced while traced")
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
            if vars(owner).get(attr) is not own:
                raise RuntimeError(f"{attr} was not restored")

    @contextlib.contextmanager
    def installed(self, provider, session=None):
        """Install every wrapper for the duration of the block."""
        counts = self.counts

        def forks(args, decision):
            counts["forks"] += decision.branched

        def demotions(args, decisions):
            counts["demotions"] += sum(a.branched and not b.branched for a, b in zip(args[1], decisions))

        def run_result(args, result):
            self.peaks.append(result.peak_frontier_size)
            counts["trace_rows"] += len(getattr(result, "traces", ()))

        def with_counting_rng(run):
            def call(provider, prompt, config, rng=None):
                if rng is None:
                    rng = CountingRng(config.seed, counts)
                return run(provider, prompt, config, rng=rng)
            return call

        try:
            for module in (engine, evalharness):
                for name in ("run_dts", "run_standard"):
                    self.patch(module, name, name, run_result, with_counting_rng(getattr(module, name)))
            self.patch(evalharness, "run_eval", "run_eval")
            self.patch(engine, "branch_function", "branch_function", forks)
            self.patch(engine, "expand_frontier", "expand_frontier")
            self.patch(engine, "apply_budget", "apply_budget", demotions)
            for module in (branching, engine):
                self.patch(module, "entropy", "entropy")
                self.patch(module, "sample_token", "sample_token")
            self.patch(branching, "top_k_tokens", "top_k_tokens")
            self.patch(core.TokenDistribution, "__post_init__", "TokenDistribution")
            self.patch(provider, "next_distributions", "provider")
            if session is not None:
                self.patch(session, "request", "http", inner=self._http(session.request))
            yield self
        finally:
            self.restore()

    def _http(self, request):
        counts, http_ms = self.counts, self.http_ms

        def call(method, url, **kwargs):
            start = perf_counter()
            try:
                response = request(method, url, **kwargs)
            except Exception:
                counts["http_failures"] += 1
                raise
            http_ms.append((perf_counter() - start) * 1e3)
            counts["req_bytes"] += len(response.request.body or b"")
            counts["resp_bytes"] += len(response.content)
            return response

        return call

    def missing(self, predicted) -> list[str]:
        """Predicted spans that recorded no call."""
        return [name for name in predicted if self.spans[name].count == 0]
