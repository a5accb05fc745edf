"""In-memory span tracer for the traced benchmark run.

``install`` wraps each traced public function at every name an ``incdur``
module binds it under (``fit_model`` is bound in ``models``, ``tuning``,
``cv``, ``scenarios``, ``importance`` and ``cli``), and wraps traced methods
on their class. Each call records a span (name, parent span, start, end) and
the counts its hook derives from the arguments and result. A target that no
longer exists, or a hook that no longer fits its function, makes its metrics
absent instead of failing the run. Spans stay in memory and are written out
once, by ``write_spans``.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import importlib
import sys
import time
from collections import Counter

import numpy as np


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _rows(x):
    return int(np.shape(getattr(x, "values", x))[0])


def _count_nodes(tree) -> int:
    stack, nodes = [tree], 0
    while stack:
        node = stack.pop()
        nodes += 1
        if not node.is_leaf:
            stack.extend((node.left, node.right))
    return nodes


# Hooks: (tracer, args, kwargs, result) -> None; each also names the counts
# it produces, so a failing hook marks exactly those absent.


def _hook_if(t, args, kwargs, result):
    t.counts["outliers.isolation_forest_scores.rows"] += _rows(_arg(args, kwargs, 0, "X"))


def _hook_lof(t, args, kwargs, result):
    x = _arg(args, kwargs, 0, "X")
    values = np.ascontiguousarray(getattr(x, "values", x))
    n = values.shape[0]
    key = (hashlib.sha1(values.tobytes()).hexdigest(), values.shape,
           int(_arg(args, kwargs, 1, "k")))
    t.counts["outliers.lof_scores.rows"] += n
    t.counts["outliers.lof_scores.pairs"] += n * n
    t.counts["outliers.lof_scores.repeats"] += key in t.lof_seen
    t.lof_seen.add(key)


def _hook_removed(t, args, kwargs, result):
    scores = _arg(args, kwargs, 0, "scores")
    t.counts["outliers.remove_top_percent.removed"] += (
        _rows(scores.scores) - int(np.shape(result)[0])
    )


def _hook_knn(t, args, kwargs, result):
    model, values = args[0], _arg(args, kwargs, 1, "values")
    t.counts["models.knn.predict.distance_evals"] += _rows(values) * _rows(model.train)


def _hook_tree(t, args, kwargs, result):
    t.trees.append(result)


def _hook_predict_tree(t, args, kwargs, result):
    t.counts["models.tree.predict_tree.rows"] += _rows(_arg(args, kwargs, 1, "X"))


def _hook_predict(t, args, kwargs, result):
    t.counts["models.TrainedModel.predict.rows"] += _rows(result)


def _hook_ieo(t, args, kwargs, result):
    t.counts["tuning.draws"] += len(result.trace)
    t.counts["tuning.draws_failed"] += sum(bool(r["failed"]) for r in result.trace)


#: (span name, module, attribute path, hook, counts the hook produces)
TARGETS = (
    ("outliers.isolation_forest_scores", "incdur.outliers",
     "isolation_forest_scores", _hook_if,
     ("outliers.isolation_forest_scores.rows",)),
    ("outliers.lof_scores", "incdur.outliers", "lof_scores", _hook_lof,
     ("outliers.lof_scores.rows", "outliers.lof_scores.pairs",
      "outliers.lof_scores.repeats")),
    ("outliers.remove_top_percent", "incdur.outliers", "remove_top_percent",
     _hook_removed, ("outliers.remove_top_percent.removed",)),
    ("models.knn.predict", "incdur.models.knn", "KnnModel.predict_values",
     _hook_knn, ("models.knn.predict.distance_evals",)),
    ("models.knn.predict", "incdur.models.knn", "KnnModel.predict_proba_values",
     _hook_knn, ("models.knn.predict.distance_evals",)),
    ("models.tree.grow_mse_tree", "incdur.models.tree", "grow_mse_tree",
     _hook_tree, ("models.tree.nodes",)),
    ("models.tree.grow_gini_tree", "incdur.models.tree", "grow_gini_tree",
     _hook_tree, ("models.tree.nodes",)),
    ("models.tree.grow_second_order_tree", "incdur.models.tree",
     "grow_second_order_tree", _hook_tree, ("models.tree.nodes",)),
    ("models.tree.predict_tree", "incdur.models.tree", "predict_tree",
     _hook_predict_tree, ("models.tree.predict_tree.rows",)),
    ("models.fit_model", "incdur.models", "fit_model", None, ()),
    ("models.TrainedModel.predict", "incdur.models.base", "TrainedModel.predict",
     _hook_predict, ("models.TrainedModel.predict.rows",)),
    ("importance.permutation_importance", "incdur.importance",
     "permutation_importance", None, ()),
    ("scenarios.fit_fusion", "incdur.scenarios", "fit_fusion", None, ()),
    ("scenarios.fit_pipeline", "incdur.scenarios", "fit_pipeline", None, ()),
    ("tuning.run_ieo", "incdur.tuning", "run_ieo", _hook_ieo,
     ("tuning.draws", "tuning.draws_failed")),
    ("dataset.load_csv", "incdur.dataset", "load_csv", None, ()),
    ("dataset.Encoder.transform", "incdur.dataset", "Encoder.transform", None, ()),
)


def _share(part, whole):
    return part / whole if whole else 0.0


class Tracer:
    """Spans and counts of one traced child run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, parent index or -1, start, end]
        self._stack = []
        self.counts = Counter()
        self.lof_seen = set()
        self.trees = []
        self.installed = set()
        self.count_names = set()
        self.absent = set()

    def wrap(self, name, fn, hook, hook_counts):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except Exception:  # noqa: BLE001 - a stale hook must not fail the run
                    self.absent.update(hook_counts)
            return result

        return traced

    def metrics(self) -> dict:
        """Per-layer metrics: calls and self time per span name, exact counts
        and the shares derived from them. Absent metrics are left out."""
        covered = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, self_s = Counter(), Counter()
        predicts = 0
        for i, (name, parent, start, end) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - covered[i]
            if (name == "models.TrainedModel.predict" and parent >= 0
                    and self.spans[parent][0] == "importance.permutation_importance"):
                predicts += 1

        out = {}
        for name in self.installed:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in self.count_names:
            out[name] = self.counts[name]
        if "models.tree.nodes" in out:
            try:
                out["models.tree.nodes"] = sum(_count_nodes(t) for t in self.trees)
            except AttributeError:  # trees are no longer linked Node objects
                self.absent.add("models.tree.nodes")
        if "outliers.lof_scores.repeats" in out:
            out["outliers.lof_scores.repeat_share"] = _share(
                out.pop("outliers.lof_scores.repeats"), calls["outliers.lof_scores"]
            )
        if {"importance.permutation_importance",
                "models.TrainedModel.predict"} <= self.installed:
            out["importance.permutation_importance.predicts"] = predicts
        if "tuning.draws" in out:
            out["tuning.draws_ok_share"] = _share(
                out["tuning.draws"] - out["tuning.draws_failed"], out["tuning.draws"]
            )
        if "outliers.lof_scores.repeats" in self.absent:
            self.absent.add("outliers.lof_scores.repeat_share")
        if "tuning.draws" in self.absent:
            self.absent.add("tuning.draws_ok_share")
        return {k: v for k, v in out.items() if k not in self.absent}

    def write_spans(self, path: str):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run_id", "span", "parent", "name", "start", "end"])
            for i, (name, parent, start, end) in enumerate(self.spans):
                writer.writerow([self.run_id, i, parent, name, repr(start), repr(end)])


def _resolve(module_name, path):
    """(owner, attribute, original) for a dotted attribute, or None if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, parts[-1], None)
    return None if original is None else (owner, parts[-1], original)


def install(tracer: Tracer):
    """Wrap every target at every binding; record the ones that are gone."""
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "incdur" or n.startswith("incdur."))]
    for name, module_name, path, hook, hook_counts in TARGETS:
        found = _resolve(module_name, path)
        if found is None:
            continue
        owner, attr, original = found
        wrapper = tracer.wrap(name, original, hook, hook_counts)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
        else:
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, bound, wrapper)
        tracer.installed.add(name)
        tracer.count_names.update(hook_counts)
