"""One `outwalk run` in a fresh process, timed from outside the package.

    python3 bench/child.py <spawn_ns> <config> [<spans_out>]

Run from the repository root with `src` on PYTHONPATH.  <spawn_ns> is the
CLOCK_MONOTONIC time (ns) at which the parent started this process.  The
process imports `outwalk.cli` and calls `main(["run", ...])` with one
thread.  Set-up ends when `build_measure` returns; the run is the rest of
`main`: the experiment and the CSV write.  With <spans_out>, every layer
is traced (bench/spans.py) and the spans are written there at the end.

Before importing `outwalk`, the process times `speed_probe()`, a fixed
piece of work that does not touch the program, and reports it as probe_s;
its time is left out of setup_s.  It runs first so that the program's
state (caches, heap) cannot change it.

The last line of stdout is one JSON object: rc, setup_s, run_s, probe_s,
maxrss_kb and, when traced, the tracer summary.  The exit code is the
CLI's.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import numpy as np

PROBE_LETTERS = 400_000
PROBE_REPS = 6


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _probe_pass(word: np.ndarray) -> int:
    out = []
    for x in word[:PROBE_LETTERS // 4].tolist():
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    arr = word
    for _ in range(8):
        hits = np.flatnonzero(arr[:-1] == -arr[1:])[::2]
        keep = np.ones(arr.size, dtype=bool)
        keep[hits] = False
        keep[hits + 1] = False
        arr = np.concatenate([arr[keep], arr[::-1][keep]])[:PROBE_LETTERS]
    return len(out) + arr.size


def speed_probe() -> float:
    """Seconds taken by fixed work shaped like outwalk's inner loops.

    Each pass is a pure-Python stack reduction and vectorized int8 pair
    deletion over a fixed pseudo-random word.  The first pass warms
    allocations and is not timed.
    """
    rng = np.random.default_rng(20150622)
    word = rng.choice(np.array([-3, -2, -1, 1, 2, 3], dtype=np.int8), size=PROBE_LETTERS)
    _probe_pass(word)
    start = now_ns()
    for _ in range(PROBE_REPS):
        _probe_pass(word)
    return (now_ns() - start) / 1e9


def main(argv) -> int:
    spawn_ns, config_path = int(argv[0]), argv[1]
    spans_out = argv[2] if len(argv) > 2 else None

    probe_s = speed_probe()
    from outwalk import cli

    tracer = None
    if spans_out is not None:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    built_ns = []
    build_measure = cli.build_measure

    def timed_build_measure(cfg):
        measure = build_measure(cfg)
        built_ns.append(now_ns())
        return measure

    cli.build_measure = timed_build_measure
    rc = cli.main(["run", "--config", config_path, "--threads", "1"])
    end_ns = now_ns()

    report = {
        "rc": rc,
        "setup_s": (built_ns[0] - spawn_ns) / 1e9 - probe_s if built_ns else None,
        "run_s": (end_ns - built_ns[0]) / 1e9 if built_ns else None,
        "probe_s": probe_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
        tracer.write(spans_out)
    print(json.dumps(report))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
