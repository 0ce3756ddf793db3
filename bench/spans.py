"""In-process spans and counts around the public functions of each module.

The program is not edited: each function is replaced, for the length of
a traced run, under the name its caller looks it up by (``search``
calls ``chartevo.search.express``, ``neat`` calls ``chartevo.neat.mutate``,
and so on).  A span records name, start, end, parent span and thread;
spans are kept in memory and written out once, when the run ends.
Counts are recorded at the same boundaries, after the span has closed,
so their bookkeeping is not charged to the function it describes.
"""
from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict

import numpy as np

from oracle import live_flop_share


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread)
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []
        self._main_stack: list = []
        # datasets materialised and datasets scored by the current command
        self._loaded: dict[int, int] = {}
        self._scored: set[int] = set()

    # ------------------------------------------------------------ wrapping

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list):
        """The innermost open span; on a worker thread with none open, the
        main thread's, which is waiting on the worker (``evaluate_population``
        scores on a thread pool)."""
        if stack:
            return stack[-1]
        if threading.current_thread() is not threading.main_thread():
            main = self._main_stack
            return main[-1] if main else None
        return None

    def _span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent, threading.get_ident()))
            if after is not None:
                with self._lock:
                    after(result, *args, **kwargs)
            return result

        return wrapper

    def _counter(self, name, fn):
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from chartevo import cli, cppn, evaluator, neat, preprocess, search

        self._main_stack = self._stack()

        c = self.counts
        span = self._span

        def loaded(result, *a, **k):
            self._loaded[id(result)] = len(result)
            c["types.charts_loaded"] += len(result)

        def scored(result, first, dataset, *a, **k):
            self._scored.add(id(dataset))

        def saved(result, path, *a, **k):
            c["types.corpus_bytes"] += os.path.getsize(path)

        def charts(result, *a, **k):
            c["preprocess.charts"] += len(result)

        def activated(result, genome, inputs, *a, **k):
            c["cppn.activate_batch_calls"] += 1
            c["cppn.query_rows"] += len(inputs)

        def expressed(net, genome, *a, **k):
            c["substrate.express_calls"] += 1
            c["cppn.genome_nodes"] += len(genome.nodes)
            c["cppn.genome_links"] += sum(1 for g in genome.connections if g.enabled)
            c["substrate.expressed_links"] += sum(int(np.count_nonzero(w)) for w in net.weights)
            c["substrate.candidate_links"] += sum(w.size for w in net.weights)

        def forwarded(result, net, X, *a, **k):
            dense = 2.0 * X.shape[0] * sum(w.size for w in net.weights)
            c["evaluator.forward_calls"] += 1
            c["evaluator.chart_evals"] += X.shape[0]
            c["evaluator.dense_flop"] += dense
            c["evaluator.live_flop"] += dense * live_flop_share(net.weights)

        def advanced(stats, *a, **k):
            c["neat.advance_calls"] += 1
            c["neat.species_total"] += stats.species_count

        self._patch(cli, "load_corpus", span("cli.load_corpus", cli.load_corpus))
        self._patch(cli, "write_manifest", span("cli.write_manifest", cli.write_manifest))
        self._patch(cli, "generate", span("synthdata.generate", cli.generate))
        self._patch(cli, "build_corpus", span("preprocess.build_corpus", cli.build_corpus))
        self._patch(cli, "save_dataset", span("types.save_dataset", cli.save_dataset, saved))
        self._patch(cli, "load_dataset", span("types.load_dataset", cli.load_dataset, loaded))
        self._patch(cli, "run_search", span("search.run_search", cli.run_search))
        self._patch(cli, "write_run_outputs", span("search.write_run_outputs", cli.write_run_outputs))
        self._patch(cli, "export_overlay", span("search.export_overlay", cli.export_overlay, scored))
        self._patch(preprocess, "charts_from_series",
                    span("preprocess.charts_from_series", preprocess.charts_from_series, charts))
        self._patch(search, "express", span("substrate.express", search.express, expressed))
        self._patch(search, "evaluate_population",
                    span("evaluator.evaluate_population", search.evaluate_population))
        self._patch(search, "fitness", span("search.rescore", search.fitness))
        self._patch(search, "forward_output",
                    span("evaluator.forward_output", search.forward_output, forwarded))
        self._patch(evaluator, "forward_output",
                    span("evaluator.forward_output", evaluator.forward_output, forwarded))
        tensors = evaluator.DatasetTensors
        self._patch(tensors, "from_dataset",
                    classmethod(span("evaluator.tensors", tensors.from_dataset.__func__, scored)))
        self._patch(cppn, "activate_batch", span("cppn.activate_batch", cppn.activate_batch, activated))
        self._patch(neat.Evolution, "advance", span("neat.advance", neat.Evolution.advance, advanced))
        self._patch(neat, "speciate", span("neat.speciate", neat.speciate))
        self._patch(neat, "reproduce", span("neat.reproduce", neat.reproduce))
        self._patch(neat, "mutate", span("neat.mutate", neat.mutate))
        self._patch(neat, "crossover", span("neat.crossover", neat.crossover))
        self._patch(neat, "compatibility", self._counter("neat.compatibility_calls", neat.compatibility))
        self._patch(neat, "would_create_cycle",
                    self._counter("neat.cycle_checks", neat.would_create_cycle))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def end_command(self) -> None:
        """Fold the command's loaded/scored datasets into the use-share counts."""
        self.counts["types.charts_scored"] += sum(
            n for key, n in self._loaded.items() if key in self._scored)
        self._loaded.clear()
        self._scored.clear()

    # ------------------------------------------------------------ results

    def times(self) -> dict[str, dict[str, float]]:
        """Wall time per span name and per module, inclusive and self.

        A span's self part is its interval minus the part its children
        cover, children on worker threads included.  Each figure is the
        length of the union of its intervals, so spans running side by
        side on two threads count the wall time they share once; the
        per-name ``thread_self`` figure sums them instead, per thread.
        """
        children: dict[int, list] = defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        inclusive: dict[str, list] = defaultdict(list)
        own: dict[str, list] = defaultdict(list)
        for sid, name, start, end, _, _ in self.spans:
            inclusive[name].append((start, end))
            own[name].extend(_subtract(start, end, _union(children.get(sid, ()))))
        modules: dict[str, list] = defaultdict(list)
        for name, segments in own.items():
            modules[name.split(".")[0]].extend(segments)
        return {
            "inclusive": {n: _length(_union(v)) for n, v in inclusive.items()},
            "self": {n: _length(_union(v)) for n, v in own.items()},
            "thread_self": {n: _length(v) for n, v in own.items()},
            "module_self": {n: _length(_union(v)) for n, v in modules.items()},
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, thread in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "thread": thread}) + "\n")


def _union(intervals) -> list:
    """Sorted, disjoint cover of ``intervals``."""
    out: list = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1]:
            out[-1][1] = max(out[-1][1], end)
        else:
            out.append([start, end])
    return out


def _subtract(lo: float, hi: float, cover: list) -> list:
    """[lo, hi] minus a sorted, disjoint ``cover``."""
    out = []
    for start, end in cover:
        if start > lo:
            out.append((lo, min(start, hi)))
        lo = max(lo, end)
        if lo >= hi:
            return out
    return out + [(lo, hi)]


def _length(segments) -> float:
    return sum(end - start for start, end in segments)


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, startup_s: float, overhead_s: float) -> dict[str, float]:
    """Per-layer metric values, named as in BENCHMARK.json."""
    times = tracer.times()
    t, own = defaultdict(float, times["inclusive"]), defaultdict(float, times["self"])
    c = tracer.counts
    return {
        "cli.startup_s": startup_s,
        "cli.load_corpus_s": t["cli.load_corpus"],
        "cli.write_manifest_s": t["cli.write_manifest"],
        "synthdata.generate_s": t["synthdata.generate"],
        "preprocess.build_corpus_s": t["preprocess.build_corpus"],
        "preprocess.charts_from_series_s": t["preprocess.charts_from_series"],
        "preprocess.charts": c["preprocess.charts"],
        "preprocess.charts_per_s": ratio(c["preprocess.charts"], t["preprocess.build_corpus"]),
        "types.save_dataset_s": t["types.save_dataset"],
        "types.corpus_bytes": c["types.corpus_bytes"],
        "types.load_dataset_s": t["types.load_dataset"],
        "types.charts_loaded": c["types.charts_loaded"],
        "types.loaded_chart_use_share": ratio(c["types.charts_scored"], c["types.charts_loaded"]),
        "cppn.activate_batch_s": t["cppn.activate_batch"],
        "cppn.activate_batch_calls": c["cppn.activate_batch_calls"],
        "cppn.query_rows": c["cppn.query_rows"],
        "cppn.genome_nodes_mean": ratio(c["cppn.genome_nodes"], c["substrate.express_calls"]),
        "cppn.genome_links_mean": ratio(c["cppn.genome_links"], c["substrate.express_calls"]),
        "substrate.express_s": own["substrate.express"],
        "substrate.express_calls": c["substrate.express_calls"],
        "substrate.expressed_link_share": ratio(c["substrate.expressed_links"],
                                                c["substrate.candidate_links"]),
        "evaluator.forward_output_s": t["evaluator.forward_output"],
        "evaluator.forward_calls": c["evaluator.forward_calls"],
        "evaluator.chart_evals": c["evaluator.chart_evals"],
        "evaluator.chart_evals_per_s": ratio(c["evaluator.chart_evals"], t["evaluator.forward_output"]),
        "evaluator.evaluate_population_s": t["evaluator.evaluate_population"],
        "evaluator.dense_gflop": c["evaluator.dense_flop"] / 1e9,
        "evaluator.live_flop_share": ratio(c["evaluator.live_flop"], c["evaluator.dense_flop"]),
        "evaluator.tensors_s": t["evaluator.tensors"],
        "neat.advance_s": t["neat.advance"],
        "neat.speciate_s": t["neat.speciate"],
        "neat.reproduce_s": t["neat.reproduce"],
        "neat.mutate_s": t["neat.mutate"],
        "neat.crossover_s": t["neat.crossover"],
        "neat.compatibility_calls": c["neat.compatibility_calls"],
        "neat.cycle_checks": c["neat.cycle_checks"],
        "neat.species_mean": ratio(c["neat.species_total"], c["neat.advance_calls"]),
        "search.run_search_s": t["search.run_search"],
        "search.self_s": own["search.run_search"],
        "search.rescore_s": t["search.rescore"],
        "search.write_run_outputs_s": t["search.write_run_outputs"],
        "search.export_overlay_s": t["search.export_overlay"],
        "trace.overhead_s": overhead_s,
    }
