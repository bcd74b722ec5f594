"""Spans around the program's layers, recorded from outside the program.

``install`` replaces public functions at the names their callers look them
up by (``pipeline.kmeans``, ``evaluation.fit_adaboost``, ``cli.cmd_*`` ...),
so an unmodified ``ecgalarm`` command runs its own code path with a span
around every layer call. A span is (id, parent, name, group, start, end,
failed, counts); spans of one record or one cell share the group. They stay
in memory and are written out when the command ends. Pool workers are
killed by their pool without an exit hook, so a worker appends its spans to
a per-process file after each record instead.

``layer_metrics`` turns a span list into the per-layer metrics: latency
percentiles per layer function, exact work counts, and self time per module
(a span's duration minus the union of its children's intervals, which also
holds when the children ran in parallel worker processes).
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from pathlib import Path

MODULES = ("cli", "record_io", "tables", "pipeline", "segmentation", "segment_features",
           "clustering", "feature_synthesis", "dwt", "evaluation", "ensemble")

# (metric, span name, statistic, unit). "ms"/"s" alone is the layer's total.
LAYER_METRICS = [
    ("record_io.load_any.ms_p50", "record_io.load_any", "p50", "ms"),
    ("tables.write_feature_csv.ms", "tables.write_feature_csv", "sum", "ms"),
    ("tables.read_feature_csv.ms", "tables.read_feature_csv", "sum", "ms"),
    ("segmentation.detect_r_peaks.ms_p50", "segmentation.detect_r_peaks", "p50", "ms"),
    ("segmentation.detect_r_peaks.ms_p95", "segmentation.detect_r_peaks", "p95", "ms"),
    ("segmentation.delineate.ms_p50", "segmentation.delineate", "p50", "ms"),
    ("segmentation.beats", "segmentation.segment_record", "beats", "count"),
    ("segment_features.segment_features.ms_p50", "segment_features.segment_features", "p50", "ms"),
    ("segment_features.llf_tail.ms_p50", "segment_features.llf_tail", "p50", "ms"),
    ("feature_synthesis.synthesize.ms_p50", "feature_synthesis.synthesize", "p50", "ms"),
    ("dwt.dwt_feature_vector.ms_p50", "dwt.dwt_feature_vector", "p50", "ms"),
    ("clustering.kmeans.cityblock.ms_p50", "clustering.kmeans.cityblock", "p50", "ms"),
    ("clustering.kmeans.cityblock.iters", "clustering.kmeans.cityblock", "iters", "count"),
    ("clustering.kmeans.sqeuclidean.ms_p50", "clustering.kmeans.sqeuclidean", "p50", "ms"),
    ("clustering.kmeans.sqeuclidean.iters", "clustering.kmeans.sqeuclidean", "iters", "count"),
    ("pipeline.featurize_record.ms_p50", "pipeline.featurize_record", "p50", "ms"),
    ("pipeline.featurize_record.ms_p95", "pipeline.featurize_record", "p95", "ms"),
    ("pipeline.featurize_record.failed", "pipeline.featurize_record", "failed", "count"),
    ("ensemble.fit_adaboost.s_p50", "ensemble.fit_adaboost", "p50", "s"),
    ("ensemble.fit_rusboost.s_p50", "ensemble.fit_rusboost", "p50", "s"),
    ("ensemble.score_batch.ms_p50", "ensemble.score_batch", "p50", "ms"),
    ("ensemble.trees", "ensemble.fit_", "trees", "count"),
    ("ensemble.splits", "ensemble.fit_", "splits", "count"),
    ("evaluation.run_cell.s", "evaluation.run_cell", "sum", "s"),
    ("evaluation.stratified_folds.ms", "evaluation.stratified_folds", "sum", "ms"),
    ("evaluation.roc_auc.ms_p50", "evaluation.roc_auc", "p50", "ms"),
    ("cli.cmd_ingest.s", "cli.cmd_ingest", "sum", "s"),
    ("cli.cmd_featurize.s", "cli.cmd_featurize", "sum", "s"),
    ("cli.cmd_evaluate.s", "cli.cmd_evaluate", "sum", "s"),
]
# Counts that must repeat exactly for the same inputs.
EXACT_COUNTS = ("segmentation.beats", "clustering.kmeans.cityblock.iters",
                "clustering.kmeans.sqeuclidean.iters", "ensemble.trees", "ensemble.splits")


class Tracer:
    def __init__(self, path: Path):
        self.path = Path(path)
        self.origin = os.getpid()
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.next_id = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # Keep the open stack so worker spans link to the span that forked them.
        self.spans = []

    def call(self, name: str, fn, args, kwargs, group=None, counts=None):
        parent = self.stack[-1] if self.stack else None
        self.next_id += 1
        span = [f"{os.getpid()}:{self.next_id}", parent[0] if parent else None, name,
                group if group is not None else (parent[3] if parent else None),
                time.perf_counter(), None, False, None]
        self.stack.append(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span[6] = True
            raise
        finally:
            span[5] = time.perf_counter()
            self.stack.pop()
            self.spans.append(span)
        if counts is not None:
            span[7] = counts(result)
        return result

    def flush_worker(self) -> None:
        """Append this worker's spans to its own file and drop them."""
        if os.getpid() == self.origin or not self.spans:
            return
        with open(f"{self.path}.{os.getpid()}.jsonl", "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def dump(self) -> None:
        spans = list(self.spans)
        for part in sorted(self.path.parent.glob(self.path.name + ".*.jsonl")):
            spans += [json.loads(line) for line in part.read_text().splitlines()]
            part.unlink()
        self.path.write_text(json.dumps(spans))


def install(path: Path) -> Tracer:
    """Wrap the program's layer functions at their lookup sites."""
    from ecgalarm import cli, ensemble, evaluation, pipeline, record_io, segmentation

    tracer = Tracer(path)

    def wrap(owner, attr, name, group=None, counts=None):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name(args, kwargs) if callable(name) else name, fn, args,
                               kwargs, group(args) if group else None, counts)

        setattr(owner, attr, traced)
        return traced

    for stage in ("ingest", "featurize", "evaluate"):
        cli.COMMANDS[stage] = wrap(cli, f"cmd_{stage}", f"cli.cmd_{stage}")
    wrap(record_io, "load_any", "record_io.load_any", group=lambda a: Path(a[0]).stem)
    wrap(cli, "write_feature_csv", "tables.write_feature_csv")
    wrap(cli, "read_feature_csv", "tables.read_feature_csv")

    global _worker_task
    _worker_task = (tracer, wrap(cli, "_featurize_task", "pipeline.featurize_task",
                                 group=lambda a: a[0][0]))
    cli._featurize_task = featurize_task
    wrap(pipeline, "featurize_record", "pipeline.featurize_record", group=lambda a: a[0])
    wrap(pipeline, "segment_record", "segmentation.segment_record",
         counts=lambda r: {"beats": len(r)})
    wrap(segmentation, "detect_r_peaks", "segmentation.detect_r_peaks")
    wrap(segmentation, "delineate", "segmentation.delineate")
    wrap(pipeline, "segment_features", "segment_features.segment_features")
    wrap(pipeline, "llf_tail", "segment_features.llf_tail")
    wrap(pipeline, "kmeans", lambda a, kw: f"clustering.kmeans.{kw.get('metric', 'cityblock')}",
         counts=lambda c: {"iters": len(c.objective_trace)})
    wrap(pipeline, "synthesize", "feature_synthesis.synthesize")
    wrap(pipeline, "dwt_feature_vector", "dwt.dwt_feature_vector")

    def ensemble_counts(model):
        return {"trees": len(model.trees), "splits": sum(t.n_splits for t in model.trees)}

    wrap(evaluation, "stratified_folds", "evaluation.stratified_folds")
    wrap(evaluation, "run_cell", "evaluation.run_cell", group=lambda a: f"{a[2]}/{a[3]}")
    wrap(evaluation, "fit_adaboost", "ensemble.fit_adaboost", counts=ensemble_counts)
    wrap(evaluation, "fit_rusboost", "ensemble.fit_rusboost", counts=ensemble_counts)
    wrap(evaluation, "roc_auc", "evaluation.roc_auc")
    wrap(ensemble.BoostedEnsemble, "score_batch", "ensemble.score_batch")
    return tracer


# Set by ``install``. ``Pool.map`` pickles its function by module path, so
# the traced task must be a module-level function that finds the tracer here.
_worker_task = None


def featurize_task(args):
    tracer, task = _worker_task
    try:
        return task(args)
    finally:
        tracer.flush_worker()


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def _self_times(spans: list[list]) -> dict[str, float]:
    children: dict[str, list[list]] = {}
    for span in spans:
        children.setdefault(span[1], []).append(span)
    out = {m: 0.0 for m in MODULES}
    for span in spans:
        start, end = span[4], span[5]
        covered, reach = 0.0, start
        for child in sorted(children.get(span[0], []), key=lambda c: c[4]):
            lo, hi = max(child[4], reach), min(child[5], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        module = span[2].split(".", 1)[0]
        out[module] += (end - start) - covered
    return out


def layer_metrics(spans: list[list]) -> dict[str, dict]:
    """Per-layer metrics of traced commands, as {name: {value, unit}}; idle layers read 0."""
    durations: dict[str, list[float]] = {}
    for span in spans:
        durations.setdefault(span[2], []).append(span[5] - span[4])
    scale = {"ms": 1e3, "s": 1.0}
    metrics = {}
    for metric, name, stat, unit in LAYER_METRICS:
        matching = [s for s in spans if s[2].startswith(name)]
        if stat == "failed":
            value = float(sum(1 for s in matching if s[6]))
        elif stat in ("beats", "iters", "trees", "splits"):
            value = float(sum((s[7] or {}).get(stat, 0) for s in matching))
        else:
            values = sorted(durations.get(name, []))
            if stat == "sum":
                value = sum(values)
            else:
                value = _percentile(values, 50 if stat == "p50" else 95)
            value *= scale[unit]
        metrics[metric] = {"value": value, "unit": unit}
    for module, seconds in _self_times(spans).items():
        metrics[f"{module}.self_s"] = {"value": seconds, "unit": "s"}
    return metrics


def record_counts(spans: list[list]) -> dict[str, dict[str, int]]:
    """Exact featurize counts per record: beats and Lloyd iterations per metric."""
    out: dict[str, dict[str, int]] = {}
    for _, _, name, group, _, _, _, counts in spans:
        if counts and name.startswith(("segmentation.", "clustering.")):
            for stat, n in counts.items():
                out.setdefault(group, {})[f"{name}.{stat}"] = n
    return out
