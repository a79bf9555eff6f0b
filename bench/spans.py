"""Span tracing from outside the program, and the per-layer metrics.

:class:`Tracer` replaces functions of ``submol`` modules with wrappers that
record a span per call: name, start, end, parent span and a work count
taken from the arguments or the returned object.  Spans stay in memory and
are written as JSON lines when the run ends.  A layer's self time is its
spans' durations minus the durations of their child spans.

Modules that import a function by name (``from .features import
height_features``) keep their own reference, so each such name is replaced
in the module that calls it; methods are replaced on their class.
"""

from __future__ import annotations

import functools
import json
import resource
import statistics
import threading
import time
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[dict[str, Any]]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def top(self) -> dict[str, Any] | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str) -> dict[str, Any]:
        parent = self.top()
        span = {"id": len(self.spans), "name": name,
                "parent": None if parent is None else parent["id"],
                "start": time.perf_counter(), "end": None, "n": 1}
        self.spans.append(span)
        self._stack().append(span)
        return span

    def close(self, span: dict[str, Any]) -> None:
        """End ``span`` and any span still open inside it (after an error)."""
        now = time.perf_counter()
        stack = self._stack()
        while stack:
            inner = stack.pop()
            inner["end"] = now
            if inner is span:
                return
        raise RuntimeError(f"span {span['name']} is not open")

    def wrap(self, fn: Callable, name: str,
             count: Callable[[Any, tuple], int] | None = None,
             after: Callable[[dict[str, Any]], None] | None = None) -> Callable:
        """``fn`` recording one ``name`` span per call.

        ``count(result, args)`` gives the span's work count; ``after(span)``
        runs once the span is closed.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                span["n"] = count(result, args)
            if after is not None:
                after(span)
            return result

        return traced

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, owner: Any, attr: str, name: str, **kwargs) -> None:
        self.replace(owner, attr, self.wrap(getattr(owner, attr), name, **kwargs))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path: str, **fields: Any) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({**fields, **span}, sort_keys=True) + "\n")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of every ``submol`` layer the CLI reaches.

    Protocol trials are synthesized: a trial opens at its first
    ``DatasetMatrix.subset`` call inside ``run_protocol`` and closes after
    its second ``accuracy`` call.  That holds when trials run one at a time,
    so traced runs use ``--threads 1``.
    """
    from submol import cli, features, forest, graph, ingest, kernels, neural
    from submol import persist, protocol, signatures, svm

    tracer.patch(cli, "parse_sdf", "graph.parse", count=lambda result, args: len(result[0]))
    tracer.patch(cli, "parse_smiles", "graph.parse")
    tracer.patch(ingest, "parse_smiles", "graph.parse")
    tracer.patch(ingest, "protein_to_chain_graph", "graph.parse")
    tracer.patch(graph, "all_pairs_distances", "graph.distances")
    tracer.patch(features, "neighborhood_subgraph", "signatures.neighborhood")
    tracer.patch(signatures, "canonical_key", "signatures.canonical_key")
    for owner in (cli, ingest):
        tracer.patch(owner, "height_features", "features.vector")
        tracer.patch(owner, "pair_features", "features.vector")
    tracer.patch(ingest, "featurize_pairs", "ingest.featurize_pairs")
    tracer.patch(cli, "load_pairs", "ingest.load_pairs")
    tracer.patch(cli, "build_matrix", "features.build_matrix")
    tracer.patch(cli, "save_sparse", "features.save")
    tracer.patch(cli, "save_vocab", "features.save")
    tracer.patch(cli, "load_sparse", "features.load")
    tracer.patch(cli, "load_vocab", "features.load")
    for owner in (kernels, cli, protocol):
        tracer.patch(owner, "kernel_feature_rows", "kernels.kernel_rows")
    tracer.patch(cli, "gram_matrix", "kernels.gram",
                 after=lambda span: span.__setitem__("rss_mb", peak_rss_mb()))
    tracer.patch(cli, "save_gram", "kernels.save_gram")
    trees = lambda model, args: len(model.trees)  # noqa: E731
    epochs = lambda model, args: model.epochs_run  # noqa: E731
    for owner in (cli, protocol):
        tracer.patch(owner, "train_forest", "forest.train", count=trees)
        tracer.patch(owner, "train_svm", "svm.train")
        tracer.patch(owner, "train_mlp", "neural.train", count=epochs)
        tracer.patch(owner, "train_partitioned_net", "neural.train", count=epochs)
    tracer.patch(forest.ForestModel, "score_rows", "forest.score")
    tracer.patch(svm.SvmModel, "score_rows", "svm.score")
    tracer.patch(neural.NetModel, "score_rows", "neural.score")
    tracer.patch(persist.KernelizedModel, "score_rows", "persist.kernelized_score")
    tracer.patch(cli, "run_protocol", "protocol.run")
    tracer.patch(cli, "roc_points", "evaluate.metrics")
    tracer.patch(protocol, "auroc", "evaluate.metrics")
    tracer.patch(cli, "save_model", "persist.save_model")
    tracer.patch(cli, "load_model", "persist.load_model")

    subset = features.DatasetMatrix.subset

    @functools.wraps(subset)
    def subset_opening_trial(self, rows):
        top = tracer.top()
        if top is not None and top["name"] == "protocol.run":
            tracer.open("protocol.trial")["accuracy_calls"] = 0
        return subset(self, rows)

    def close_trial(accuracy_span: dict[str, Any]) -> None:
        top = tracer.top()
        if top is not None and top["name"] == "protocol.trial":
            top["accuracy_calls"] += 1
            if top["accuracy_calls"] == 2:
                tracer.close(top)

    tracer.replace(features.DatasetMatrix, "subset", subset_opening_trial)
    tracer.patch(protocol, "accuracy", "evaluate.metrics", after=close_trial)


def _self_times(spans: list[dict[str, Any]]) -> list[float]:
    selfs = [s["end"] - s["start"] for s in spans]
    base = spans[0]["id"] if spans else 0
    for s in spans:
        if s["parent"] is not None and s["parent"] >= base:
            selfs[s["parent"] - base] -= s["end"] - s["start"]
    return selfs


def layer_metrics(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer metrics of one traced round (``spans`` numbered contiguously)."""
    selfs = _self_times(spans)
    busy: dict[str, float] = {}
    work: dict[str, int] = {}
    calls: dict[str, int] = {}
    for s, own in zip(spans, selfs):
        layer = s["name"] if not s["name"].startswith("cli.") else "cli"
        busy[layer] = busy.get(layer, 0.0) + own
        work[layer] = work.get(layer, 0) + s["n"]
        calls[layer] = calls.get(layer, 0) + 1

    def per(layer: str, unit: str = "work") -> float:
        base = (work if unit == "work" else calls).get(layer, 0)
        return busy.get(layer, 0.0) / base if base else 0.0

    keys = [s["end"] - s["start"] for s in spans if s["name"] == "signatures.canonical_key"]
    trials = [s["end"] - s["start"] for s in spans if s["name"] == "protocol.trial"]
    grams = [s["rss_mb"] for s in spans if s["name"] == "kernels.gram"]
    parse_s = busy.get("graph.parse", 0.0)
    key_s = busy.get("signatures.canonical_key", 0.0)
    return {
        "graph.parse_s": parse_s,
        "graph.mols_per_s": work.get("graph.parse", 0) / parse_s if parse_s else 0.0,
        "graph.distances_s": busy.get("graph.distances", 0.0),
        "signatures.neighborhood_s": busy.get("signatures.neighborhood", 0.0),
        "signatures.canonical_key_calls": len(keys),
        "signatures.canonical_key_s": key_s,
        "signatures.keys_per_s": len(keys) / key_s if key_s else 0.0,
        "signatures.max_key_s": max(keys, default=0.0),
        "features.vector_s": busy.get("features.vector", 0.0),
        "features.build_matrix_s": busy.get("features.build_matrix", 0.0),
        "features.save_sparse_s": busy.get("features.save", 0.0),
        "features.load_s": busy.get("features.load", 0.0),
        "ingest.load_pairs_s": busy.get("ingest.load_pairs", 0.0),
        "kernels.kernel_rows_s": busy.get("kernels.kernel_rows", 0.0),
        "kernels.save_gram_s": busy.get("kernels.save_gram", 0.0),
        "kernels.gram_peak_rss_mb": grams[0] if grams else 0.0,
        "forest.train_s": busy.get("forest.train", 0.0),
        "forest.s_per_tree": per("forest.train"),
        "forest.score_s": busy.get("forest.score", 0.0),
        "svm.train_s": busy.get("svm.train", 0.0),
        "svm.score_s": busy.get("svm.score", 0.0),
        "neural.train_s": busy.get("neural.train", 0.0),
        "neural.s_per_epoch": per("neural.train"),
        "neural.score_s": busy.get("neural.score", 0.0),
        "protocol.trial_s": statistics.median(trials) if trials else 0.0,
        "protocol.self_s": busy.get("protocol.run", 0.0) + busy.get("protocol.trial", 0.0),
        "evaluate.metrics_s": busy.get("evaluate.metrics", 0.0),
        "persist.save_model_s": busy.get("persist.save_model", 0.0),
        "persist.load_model_s": busy.get("persist.load_model", 0.0),
        "cli.self_s": busy.get("cli", 0.0),
    }
