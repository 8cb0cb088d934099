"""Spans around the semrel package's public functions, and the layer metrics
derived from them.

    python3 bench/tracing.py SPANS_FILE COMMAND [ARGS...]

runs one semrel command in-process, as ``semrel COMMAND ARGS`` would, with
every function in WRAPPED replaced, at each module attribute that holds it, by
a wrapper that records a span: name, start, end, parent span and, for a few
functions, counts taken from the arguments. Spans stay in memory and are
written to SPANS_FILE as JSON when the command ends. The exit code is the
command's.

A function that a later version of the package no longer has is listed as
missing in the file, and the metrics that need it are left out.

Importing this module loads nothing but the standard library, so the
benchmark's parent process can derive metrics without loading numpy.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

WRAPPED = {
    "cli": ("main",),
    "corpus": ("parse_conll", "build_path_index", "extract_paths", "save_index", "load_index"),
    "embeddings": ("load_table",),
    "path_encoder": ("average_paths_with_cache", "backprop_average"),
    "relation_model": (
        "train", "loss_and_gradients", "apply_gradients", "save_model", "load_model",
        "pair_distribution",
    ),
    "relatedness": ("tune_combiner",),
    "pipeline": ("predict_pairs",),
}

TRAIN = "relation_model.train"
ENCODE = "path_encoder.average_paths_with_cache"


def _argument(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


class Tracer:
    """Records spans as [name, start, end, parent index, counts or None]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.missing = []
        self.encoded = defaultdict(set)  # id(vocab) -> paths encoded at inference

    def _in_training(self):
        return any(self.spans[i][0] == TRAIN for i in self.stack)

    def _count_encode(self, args, kwargs):
        """Paths, LSTM steps and paths new to this model, outside training."""
        if self._in_training():
            return None
        paths = _argument(args, kwargs, 0, "paths")
        seen = self.encoded[id(_argument(args, kwargs, 1, "vocab"))]
        new = [p for p in paths if p not in seen]
        seen.update(new)
        return {"paths": len(paths), "steps": sum(len(p.edges) for p in paths), "new": len(new)}

    @staticmethod
    def _count_update(args, kwargs):
        """Nonzero gradient values against all values the update writes."""
        import numpy as np

        nonzero = written = 0
        pending = [_argument(args, kwargs, 1, "grads")]
        while pending:
            value = pending.pop()
            if isinstance(value, np.ndarray):
                nonzero += int(np.count_nonzero(value))
                written += value.size
            elif hasattr(value, "__dict__"):
                pending.extend(vars(value).values())
        return {"nonzero": nonzero, "written": written}

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        counter = {ENCODE: self._count_encode,
                   "relation_model.apply_gradients": self._count_update}.get(name)

        def traced(*args, **kwargs):
            counts = counter(args, kwargs) if counter else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, counts]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self):
        """Wrap every function in WRAPPED wherever a semrel module holds it."""
        import semrel  # noqa: F401  (the package imports its modules)

        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "semrel"]
        for short, names in WRAPPED.items():
            home = sys.modules.get(f"semrel.{short}")
            for fname in names:
                fn = getattr(home, fname, None)
                if fn is None:
                    self.missing.append(f"{short}.{fname}")
                    continue
                traced = self.wrap(f"{short}.{fname}", fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, traced)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"missing": self.missing, "spans": self.spans}, fh)


class Totals:
    """Sums over the spans of one or more traced commands."""

    def __init__(self):
        self.missing = set()
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    def add(self, doc):
        self.missing.update(doc["missing"])
        spans = doc["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, counts) in enumerate(spans):
            self.seconds[name] += end - start
            self.self_seconds[name] += end - start - child_time[i]
            self.calls[name] += 1
            if name == ENCODE:
                node, phase = parent, "infer"
                while node >= 0:
                    if spans[node][0] == TRAIN:
                        phase = "train"
                        break
                    node = spans[node][3]
                self.seconds[f"{ENCODE}.{phase}"] += end - start
            for key, value in (counts or {}).items():
                self.counts[f"{name}.{key}"] += value


def _ratio(a, b):
    return a / b if b else None


# Metric name -> (functions it needs, unit, value from the totals).
LAYER_METRICS = {
    "corpus.parse_conll_s": (
        ("corpus.parse_conll",), "s", lambda t: t.seconds["corpus.parse_conll"]),
    "corpus.build_path_index_s": (
        ("corpus.build_path_index",), "s", lambda t: t.seconds["corpus.build_path_index"]),
    "corpus.build_path_index_self_s": (
        ("corpus.build_path_index", "corpus.extract_paths"), "s",
        lambda t: t.self_seconds["corpus.build_path_index"]),
    "corpus.extract_paths_calls": (
        ("corpus.extract_paths",), "count", lambda t: t.calls["corpus.extract_paths"]),
    "corpus.save_index_s": (("corpus.save_index",), "s", lambda t: t.seconds["corpus.save_index"]),
    "corpus.load_index_s": (("corpus.load_index",), "s", lambda t: t.seconds["corpus.load_index"]),
    "embeddings.load_table_s": (
        ("embeddings.load_table",), "s", lambda t: t.seconds["embeddings.load_table"]),
    "path_encoder.train_encode_s": (
        (ENCODE, TRAIN), "s", lambda t: t.seconds[f"{ENCODE}.train"]),
    "path_encoder.backprop_s": (
        ("path_encoder.backprop_average",), "s",
        lambda t: t.seconds["path_encoder.backprop_average"]),
    "path_encoder.infer_encode_s": (
        (ENCODE, TRAIN), "s", lambda t: t.seconds[f"{ENCODE}.infer"]),
    "path_encoder.paths_encoded": (
        (ENCODE, TRAIN), "count", lambda t: t.counts[f"{ENCODE}.paths"]),
    "path_encoder.lstm_steps": (
        (ENCODE, TRAIN), "count", lambda t: t.counts[f"{ENCODE}.steps"]),
    "path_encoder.distinct_path_share": (
        (ENCODE, TRAIN), "ratio",
        lambda t: _ratio(t.counts[f"{ENCODE}.new"], t.counts[f"{ENCODE}.paths"])),
    "relation_model.step_ms": (
        ("relation_model.loss_and_gradients", "relation_model.apply_gradients"), "ms",
        lambda t: _ratio(1000.0 * (t.seconds["relation_model.loss_and_gradients"]
                                   + t.seconds["relation_model.apply_gradients"]),
                         t.calls["relation_model.apply_gradients"])),
    "relation_model.loss_and_gradients_s": (
        ("relation_model.loss_and_gradients",), "s",
        lambda t: t.seconds["relation_model.loss_and_gradients"]),
    "relation_model.apply_gradients_s": (
        ("relation_model.apply_gradients",), "s",
        lambda t: t.seconds["relation_model.apply_gradients"]),
    "relation_model.update_useful_share": (
        ("relation_model.apply_gradients",), "ratio",
        lambda t: _ratio(t.counts["relation_model.apply_gradients.nonzero"],
                         t.counts["relation_model.apply_gradients.written"])),
    "relation_model.save_model_s": (
        ("relation_model.save_model",), "s", lambda t: t.seconds["relation_model.save_model"]),
    "relation_model.load_model_s": (
        ("relation_model.load_model",), "s", lambda t: t.seconds["relation_model.load_model"]),
    "relation_model.pair_distribution_s": (
        ("relation_model.pair_distribution",), "s",
        lambda t: t.seconds["relation_model.pair_distribution"]),
    "relatedness.tune_combiner_self_s": (
        ("relatedness.tune_combiner", "relation_model.pair_distribution"), "s",
        lambda t: t.self_seconds["relatedness.tune_combiner"]),
    "pipeline.predict_pairs_s": (
        ("pipeline.predict_pairs",), "s", lambda t: t.seconds["pipeline.predict_pairs"]),
}


def layer_metrics(totals):
    """{name: (value, unit)} of every metric whose functions were all wrapped
    and whose ratio has a nonzero base."""
    out = {}
    for name, (needs, unit, value) in LAYER_METRICS.items():
        if totals.missing.isdisjoint(needs):
            v = value(totals)
            if v is not None:
                out[name] = (v, unit)
    return out


def main():
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from semrel import cli

    try:
        code = cli.main(argv)
    finally:
        tracer.dump(spans_file)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
