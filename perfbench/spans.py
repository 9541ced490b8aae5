"""Layer spans recorded from outside the program.

Each public function that marks a layer boundary is replaced, at the
name its caller looks it up by, with a wrapper that times the call. A
metric key accumulates only its outermost span, so a layer that calls
itself (``batch_fuse`` -> ``fuse``) is not counted twice. A layer's self
time is its span time minus the time of the spans nested directly in it.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from typing import Any, Callable


def _rows(result: Any) -> float:
    if isinstance(result, dict):  # probability table or detections by image
        return float(sum(len(v) if isinstance(v, list) else 1 for v in result.values()))
    return float(len(result))


def _bytes_at(position: int) -> Callable:
    return lambda args, result: {"io.bytes_written": float(os.path.getsize(args[position]))}


# (module, attribute, layer, time keys, count key, extra counters)
SPANS: tuple[tuple[str, str, str, tuple[str, ...], str | None, Callable | None], ...] = (
    # io: the read side, then the write side
    *((m, a, "io", ("io.load_s",), None, lambda args, r: {"io.rows_loaded": _rows(r)})
      for m, a in (("kgdg.cli", "load_feature_table"), ("kgdg.cli", "load_probability_table"),
                   ("kgdg.cli", "load_detections"), ("kgdg.io", "load_feature_table"),
                   ("kgdg.io", "load_probability_table"))),
    *((m, a, "io", ("io.load_s",), None, None)
      for m, a in (("kgdg.cli", "load_manifest"), ("kgdg.harness", "load_domain_dataset"),
                   ("kgdg.harness", "file_digest"))),
    *(("kgdg.synth", a, "io", ("io.save_s",), None, _bytes_at(0))
      for a in ("save_feature_table", "save_probability_table", "save_detections", "save_manifest")),
    ("kgdg.io", "save_probability_table", "io", ("io.save_s",), None, _bytes_at(0)),
    ("kgdg.cli", "save_model", "io", ("io.save_s",), None, _bytes_at(1)),
    # synth
    ("kgdg.synth", "gen_dataset", "synth", ("synth.gen_s",), None, None),
    # rules
    *((m, a, "rules", ("rules.s",), "rules.calls", None)
      for m, a in (("kgdg.synth", "aggregate_detections"), ("kgdg.cli", "grade_by_rules"),
                   ("kgdg.cli", "grade_detections"), ("kgdg.rules", "aggregate_detections"),
                   ("kgdg.rules", "grade_by_rules"), ("kgdg.rules", "rule_grade_as_probability"))),
    # learn.config
    *((m, "feature_matrix", "learn", ("learn.featurize_s",), "learn.featurize_calls", None)
      for m in ("kgdg.harness", "kgdg.learn.gbm", "kgdg.learn.baselines")),
    # learn.tree
    ("kgdg.learn.gbm", "fit_regression_tree", "tree", ("tree.regression_fit_s",), "tree.regression_trees", None),
    ("kgdg.learn.baselines", "fit_classification_tree", "tree",
     ("tree.classification_fit_s",), "tree.classification_trees", None),
    *((m, "predict_tree", "tree", ("tree.predict_s",), "tree.predict_calls", None)
      for m in ("kgdg.learn.gbm", "kgdg.learn.baselines")),
    # learn.gbm and learn.baselines
    *((m, "fit_gbm_arrays", "gbm", ("gbm.fit_s",), None,
       lambda args, r: {"gbm.rounds": float(len(r.train_loss_curve))})
      for m in ("kgdg.learn", "kgdg.learn.gbm")),
    *((m, "fit_logistic_arrays", "baselines", ("logistic.fit_s",), None, None)
      for m in ("kgdg.learn", "kgdg.learn.baselines")),
    *((m, "fit_forest_arrays", "baselines", ("forest.fit_s",), None, None)
      for m in ("kgdg.learn", "kgdg.learn.baselines")),
    # models: every batch prediction, including the one-row calls behind predict_proba
    *((m, f"{cls}.predict_proba_matrix", "models", keys, "learn.predict_calls",
       lambda args, r: {"learn.predict_rows": float(args[1].shape[0])})
      for m, cls, keys in (("kgdg.learn.gbm", "GbmModel", ("learn.predict_s",)),
                           ("kgdg.learn.baselines", "LogisticModel", ("learn.predict_s",)),
                           ("kgdg.learn.baselines", "ForestModel", ("learn.predict_s",)),
                           ("kgdg.learn.baselines", "KnnModel", ("learn.predict_s", "knn.predict_s")))),
    # fusion
    *((m, a, "fusion", ("fusion.s",), "fusion.calls", None)
      for m, a in (("kgdg.harness", "fuse"), ("kgdg.harness", "fused_probability"),
                   ("kgdg.cli", "batch_fuse"), ("kgdg.fusion", "fuse"))),
    # harness
    ("kgdg.cli", "run_experiment", "harness", (), None, None),
    ("kgdg.harness", "select_weights", "harness", ("harness.weight_search_s",), None, None),
    *((m, "split_dataset", "harness", ("harness.split_s",), None, None) for m in ("kgdg.harness", "kgdg.cli")),
    # metrics
    *(("kgdg.harness", a, "metrics", ("metrics.s",), None, None) for a in ("accuracy", "macro_f1")),
    *((m, "auc_ovr_macro", "metrics", ("metrics.s", "metrics.auc_s"), None, None)
      for m in ("kgdg.harness", "kgdg.metrics")),
    ("kgdg.cli", "evaluate_predictions", "metrics", ("metrics.s",), None, None),
    # report
    ("kgdg.cli", "emit_report", "report", ("report.render_s",), None, None),
)

# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {
    "io.load_s": "s", "io.rows_loaded": "rows", "io.save_s": "s", "io.bytes_written": "bytes",
    "synth.gen_s": "s", "rules.s": "s", "rules.calls": "count",
    "learn.featurize_s": "s", "learn.featurize_calls": "count",
    "tree.regression_fit_s": "s", "tree.regression_trees": "count",
    "tree.classification_fit_s": "s", "tree.classification_trees": "count",
    "tree.predict_s": "s", "tree.predict_calls": "count",
    "gbm.fit_s": "s", "gbm.rounds": "count",
    "logistic.fit_s": "s", "knn.predict_s": "s", "forest.fit_s": "s",
    "learn.predict_s": "s", "learn.predict_calls": "count", "learn.rows_per_predict_call": "rows/call",
    "fusion.s": "s", "fusion.calls": "count",
    "harness.weight_search_s": "s", "harness.split_s": "s", "harness.self_s": "s",
    "metrics.s": "s", "metrics.auc_s": "s", "report.render_s": "s",
}


class Tracer:
    """Accumulates span times and counts while ``active`` is set."""

    def __init__(self) -> None:
        self.active = False
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self._open: Counter[str] = Counter()
        self._children: list[float] = []  # per open span: time of its direct child spans

    def wrap(self, fn: Callable, layer: str, keys: tuple[str, ...], count: str | None,
             extra: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            outer = [k for k in keys if not self._open[k]]
            self._open.update(keys)
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._open.subtract(keys)
                self.self_s[layer] += elapsed - self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
            for k in outer:
                self.totals[k] += elapsed
            if count and keys[0] in outer:
                self.totals[count] += 1
            if extra:
                for name, value in extra(args, result).items():
                    self.totals[name] += value
            return result

        return traced

    def install(self) -> None:
        """Patch every span in SPANS; the modules must import cleanly."""
        for module_name, attr, layer, keys, count, extra in SPANS:
            owner: Any = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, name, self.wrap(getattr(owner, name), layer, keys, count, extra))

    def take(self) -> dict[str, float]:
        """Return what was recorded since the last call, and start afresh."""
        out = dict(self.totals)
        out["harness.self_s"] = self.self_s["harness"]
        self.totals.clear()
        self.self_s.clear()
        return out


def layer_metrics(setup: dict[str, float], rounds: list[dict[str, float]]) -> dict[str, float]:
    """Set-up totals plus the mean per traced round, for every per-layer metric."""
    values = {}
    for name in (*LAYER_METRICS, "learn.predict_rows"):
        per_round = sum(r.get(name, 0.0) for r in rounds) / len(rounds)
        values[name] = setup.get(name, 0.0) + per_round
    calls = values["learn.predict_calls"]
    values["learn.rows_per_predict_call"] = values.pop("learn.predict_rows") / calls if calls else 0.0
    return values
