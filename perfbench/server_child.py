"""Server side of ``remote-loopback``: serve the seeded automaton over HTTP.

    python3 perfbench/server_child.py --seed N

Binds 127.0.0.1 on a free port, prints its URL as the first line of
stdout, and serves until its stdin is closed. It then prints one JSON line
with the totals of ``ProviderServer.values_for``: calls, rows and seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from time import perf_counter


def main() -> int:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from srcpath import use_checkout_source

    use_checkout_source()
    from dts.providers import ProviderServer
    from workloads import REMOTE, tree_pfsa

    class TimedServer(ProviderServer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.totals = {"calls": 0, "rows": 0, "seconds": 0.0}
            self.lock = threading.Lock()

        def values_for(self, prompt, sequences):
            start = perf_counter()
            try:
                return super().values_for(prompt, sequences)
            finally:
                elapsed = perf_counter() - start
                with self.lock:
                    self.totals["calls"] += 1
                    self.totals["rows"] += len(sequences)
                    self.totals["seconds"] += elapsed

    parser = argparse.ArgumentParser(description="serve the remote-loopback automaton")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    server = TimedServer(tree_pfsa(args.seed, REMOTE["vocab"], REMOTE["states"]), kind="logprobs", port=0)
    with server:
        print(server.url, flush=True)
        sys.stdin.read()
    print(json.dumps(server.totals), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
