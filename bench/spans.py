"""Span tracing of outwalk's layers, installed from outside the package.

`Tracer.install()` wraps the public functions of each layer.  Modules
bind these names with `from ... import`, so every module attribute that
refers to a wrapped function is replaced, not only the one in the
defining module; methods are wrapped on their class.

A span is [name, start, end, parent index, path id], kept in memory and
written out by `write()` when the run ends.  A layer's self time is its
span duration minus the durations of its child spans.  The tracer keeps
one stack, so traced runs must use a single thread.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# Span names are `<layer>.<function>`; layer names drop the leading
# underscore of `_wordkernel` so that metric names start with a letter.
# `config` spans fall in set-up, so it has no share of the run time.
RUN_LAYERS = ("wordkernel", "automorphisms", "outer_metric", "spectral",
              "matrix_oracle", "walk_engine", "rng", "cli")

PATH_SPAN = "walk_engine.path"


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.path_id = -1
        self.counts = defaultdict(float)
        self.peak_letters = 0

    def wrap(self, name, fn, after=None, errors=()):
        """fn recorded as span `name`; after(args, result) updates counters
        once the span is closed; raised `errors` are counted under
        `<name>.budget_failures`."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.path_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except errors:
                self.counts[name + ".budget_failures"] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        from outwalk import (_wordkernel, automorphisms, cli, config, matrix_oracle,
                             outer_metric, rng, spectral, walk_engine)

        counts = self.counts

        def substituted(args, out):
            counts["wordkernel.substitute.letters_in"] += args[1].size
            counts["wordkernel.substitute.letters_out"] += out.size

        def reduced(args, out):
            counts["wordkernel.reduce_array.letters_in"] += args[0].size

        def trimmed(args, out):
            counts["wordkernel.cyclic_trim.letters_peeled"] += args[0].size - out.size

        def composed(args, out):
            counts["automorphisms.compose.letters_out"] += out.size() + sum(
                len(w) for w in out.inverse_images)

        def multiplied(args, out):
            counts["matrix_oracle.matmul.bits_out"] += out.max_bits()

        def bracketed(args, out):
            counts["spectral.bracket.k_used_sum"] += out.k_used

        def advanced(args, out):
            path = args[0]
            self.peak_letters = max(
                self.peak_letters, path.product.size() + path.inverse_product.size())

        def written(args, out):
            counts["cli.write_series.bytes"] += os.path.getsize(args[2])

        stack_reduce = _wordkernel.stack_reduce
        small = _wordkernel.SMALL

        def counted_stack_reduce(letters):
            if len(letters) > small:
                counts["wordkernel.stack_reduce.fallback_letters"] += len(letters)
            return stack_reduce(letters)

        counted_stack_reduce.__wrapped__ = stack_reduce
        _rebind(stack_reduce, counted_stack_reduce)

        budget = (_wordkernel.WordBudgetExceeded,)
        for name, fn, after, errors in (
            ("wordkernel.reduce_array", _wordkernel.reduce_array, reduced, ()),
            ("wordkernel.cyclic_trim", _wordkernel.cyclic_trim, trimmed, ()),
            ("automorphisms.compose", automorphisms.compose, composed, budget),
            ("automorphisms.apply", automorphisms.apply, None, ()),
            ("outer_metric.dist", outer_metric.dist, None, ()),
            ("spectral.bracket", spectral.bracket, bracketed, ()),
            ("spectral.stretch_ratio", spectral.stretch_ratio, None, ()),
            ("spectral.stretch_lower", spectral.stretch_lower, None, ()),
            ("matrix_oracle.spectral_radius", matrix_oracle.spectral_radius, None, ()),
            ("rng.categorical", rng.categorical, None, ()),
            ("config.parse_config", config.parse_config, None, ()),
            ("config.build_measure", config.build_measure, None, ()),
            ("cli.write_series", cli.write_series, written, ()),
        ):
            _rebind(fn, self.wrap(name, fn, after, errors))
        for cls, attr, name, after in (
            (_wordkernel.ImageTable, "substitute", "wordkernel.substitute", substituted),
            (matrix_oracle.IntMatrix, "__matmul__", "matrix_oracle.matmul", multiplied),
            (walk_engine.WalkPath, "advance", "walk_engine.advance", advanced),
        ):
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), after))

        run_paths = walk_engine._run_paths

        def traced_run_paths(paths, threads, one_path):
            if threads != 1:
                raise ValueError("traced runs must use one thread")

            def one_traced_path(pid):
                self.path_id = pid
                try:
                    return path_span(pid)
                finally:
                    self.path_id = -1

            path_span = self.wrap(PATH_SPAN, one_path)
            return run_paths(paths, threads, one_traced_path)

        walk_engine._run_paths = traced_run_paths

    def summary(self) -> dict:
        """Totals of the recorded spans and counters, plus per-path walls.

        `sums` holds, for each span name, `.calls`, `.self_s` (duration
        minus child spans) and `.s` (duration); `<layer>.self_s` for each
        layer; and the counters.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        sums = defaultdict(float, self.counts)
        walls = []
        for i, (name, start, end, _, _) in enumerate(spans):
            own = end - start - child[i]
            sums[name + ".calls"] += 1
            sums[name + ".s"] += end - start
            sums[name + ".self_s"] += own
            sums[name.split(".")[0] + ".self_s"] += own
            if name == PATH_SPAN:
                walls.append(end - start)
        return {"sums": dict(sums), "walls": walls, "peak_letters": self.peak_letters}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,path_id\n")
            for name, start, end, parent, pid in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{pid}\n")


def _rebind(fn, replacement) -> None:
    """Point every outwalk module attribute bound to fn at replacement."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "outwalk" or mod_name.startswith("outwalk.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, replacement)
