"""In-memory spans around calls into safnet, and the per-layer metrics they give.

The benchmark records spans from its own side of each layer boundary: while
``instrument`` is active, the public functions of every safnet module, the
autodiff ops the model calls, and each graph node's backward closure are
replaced by wrappers that time the call. Nothing in ``src/`` changes.
Spans stay in memory and are written out when the run ends; the schema is in
``bench/README.md``.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import numpy as np

ENCODER_OPS = ("temporal_conv", "batch_norm", "depthwise_spatial_conv",
               "depthwise_temporal_conv", "pointwise_conv", "elu",
               "avg_pool_time", "dropout")
# Ops called inside the training step but outside the encoder (the two heads
# and the loss terms) are reported together as "heads".
REPORTED_OPS = ENCODER_OPS + ("heads",)
WRAPPED_OPS = ENCODER_OPS + ("reshape", "linear", "grl",
                             "softmax_cross_entropy", "entropy_of_softmax",
                             "add", "mul", "scale_value_only")


class Tracer:
    """Spans and counters of one benchmark run.

    A span is the tuple (id, parent id, name, start_ns, end_ns, round); ids
    carry the recording process id in their high 32 bits, so spans returned
    by pool workers never collide with the parent's.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.owner_pid = os.getpid()
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.round = -1  # -1 marks set-up
        self.scope = None  # "encoder", "heads" or None (ops not recorded)
        self.in_op = False
        self._stack: list[tuple] = []
        self._seq = 0
        self._pid = self.owner_pid

    def begin(self, name: str) -> None:
        self._seq += 1
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append(((self._pid << 32) | self._seq, parent, name,
                            time.perf_counter_ns()))

    def end(self) -> None:
        end = time.perf_counter_ns()
        sid, parent, name, start = self._stack.pop()
        self.spans.append((sid, parent, name, start, end, self.round))

    def current(self):
        return self._stack[-1][2] if self._stack else None

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def adopt_worker(self) -> bool:
        """In a forked pool worker, start empty buffers under the worker's
        pid; the inherited stack keeps worker spans parented to the parent's
        open dispatch span. Returns True inside a worker."""
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self.spans = []
            self.counters = {}
        return pid != self.owner_pid

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, rnd in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end, "run": self.run_id,
                    "round": rnd, "pid": sid >> 32}) + "\n")


# Pool workers find the wrapper by import path, so the tracer and the wrapped
# cell function are reachable from module scope while ``instrument`` is active.
_active: Tracer | None = None
_grid_cell_impl = None


class _CellResult(tuple):
    """A grid cell's (i, j, accuracy) carrying the worker's spans back."""

    def __new__(cls, result, spans=(), counters=None):
        self = super().__new__(cls, result)
        self.spans = list(spans)
        self.counters = counters or {}
        return self


def _traced_grid_cell(args):
    tracer = _active
    in_worker = tracer.adopt_worker()
    tracer.begin("grid.cell")
    try:
        result = _grid_cell_impl(args)
    finally:
        tracer.end()
    if not in_worker:
        return result
    spans, counters = tracer.spans, tracer.counters
    tracer.spans, tracer.counters = [], {}
    return _CellResult(result, spans, counters)


class _TracedPool(ProcessPoolExecutor):
    """Times the dispatch of grid cells and merges the workers' spans."""

    def map(self, fn, *iterables, **kwargs):
        tracer = _active
        iterables = [list(it) for it in iterables]
        if iterables and iterables[0]:
            tracer.counters["grid.task_bytes"] = len(pickle.dumps(iterables[0][0]))
        tracer.counters["grid.jobs"] = self._max_workers
        tracer.begin("grid.dispatch")
        try:
            results = list(super().map(fn, *iterables, **kwargs))
        finally:
            tracer.end()
        for res in results:
            if isinstance(res, _CellResult):
                tracer.spans.extend(res.spans)
                for key, n in res.counters.items():
                    tracer.count(key, n)
        return iter(results)


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()
    return wrapper


def _timed_grad(tracer: Tracer, name: str, grad_fn, flops: int):
    def timed(g):
        tracer.begin(name)
        try:
            return grad_fn(g)
        finally:
            tracer.end()
            if flops:
                tracer.count("autodiff.temporal_conv.flops", flops)
    return timed


def _temporal_conv_flops(x, w) -> tuple[int, int]:
    """Multiply-adds x2 of the forward einsum and of the weight gradient."""
    b, _, c, m = x.data.shape
    f, k = w.data.shape
    fwd = 2 * b * f * c * m * k
    return fwd, fwd if w.requires_grad else 0


def _op_wrapper(tracer: Tracer, name: str, fn, wants_grad):
    def op(*args, **kwargs):
        if tracer.scope is None or tracer.in_op:
            return fn(*args, **kwargs)
        label = name if tracer.scope == "encoder" else "heads"
        tracer.in_op = True
        tracer.begin(f"autodiff.{label}.fwd")
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end()
            tracer.in_op = False
        bwd_flops = 0
        if name == "temporal_conv":
            fwd_flops, bwd_flops = _temporal_conv_flops(args[0], args[1])
            if wants_grad(args[0]):
                bwd_flops += fwd_flops
            tracer.count("autodiff.temporal_conv.flops", fwd_flops)
        # dropout returns its input unchanged when inactive; that node is
        # already timed by the op that made it
        if out is not args[0] and out._grad_fn is not None:
            out._grad_fn = _timed_grad(tracer, f"autodiff.{label}.bwd",
                                       out._grad_fn, bwd_flops)
        return out
    return op


def _swap_counter(tracer: Tracer, fn):
    @functools.wraps(fn)
    def augment(batch, cfg, rng):
        # the augmentation call opens each optimizer step inside fit
        if tracer.current() == "train.fit":
            tracer.begin("train.step")
        tracer.begin("isbcs.augment")
        try:
            out, records = fn(batch, cfg, rng)
        finally:
            tracer.end()
        if cfg.p > 0 and batch:
            swapped = sum(2 * int(rec.swapped_channels.sum()) for rec in records
                          if rec.pair[0] != rec.pair[1])
            tracer.count("isbcs.swapped", swapped)
            tracer.count("isbcs.slots", len(batch) * batch[0].channels)
        return out, records
    return augment


def _adam_closer(tracer: Tracer, fn):
    @functools.wraps(fn)
    def adam_step(*args, **kwargs):
        tracer.begin("train.adam")
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()
            if tracer.current() == "train.step":
                tracer.end()
    return adam_step


def _scoped(tracer: Tracer, name: str, scope, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        prev = tracer.scope
        tracer.scope = scope
        tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()
            tracer.scope = prev
    return wrapper


def _encoder_forward(tracer: Tracer, fn):
    @functools.wraps(fn)
    def encoder_forward(self, x, mode="eval", rng=None):
        if mode != "train":
            prev = tracer.scope
            tracer.scope = None
            try:
                return fn(self, x, mode=mode, rng=rng)
            finally:
                tracer.scope = prev
        return _scoped(tracer, "model.encoder_forward.train", "encoder",
                       fn)(self, x, mode=mode, rng=rng)
    return encoder_forward


def _predict(tracer: Tracer, fn):
    @functools.wraps(fn)
    def predict(self, x):
        tracer.count("model.predict.samples", len(x))
        return _spanned(tracer, "model.predict", fn)(self, x)
    return predict


def _calibration(tracer: Tracer, fn):
    @functools.wraps(fn)
    def select_calibration(rec, cfg):
        out = _spanned(tracer, "asr.select_calibration", fn)(rec, cfg)
        if out is rec:
            tracer.count("asr.calib_fallback")
        return out
    return select_calibration


def _writer(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def write(obj, path):
        _spanned(tracer, name, fn)(obj, path)
        tracer.count("datamodel.bytes_written", os.path.getsize(path))
    return write


def _cli_main(tracer: Tracer, fn):
    @functools.wraps(fn)
    def main(argv=None):
        name = f"cli.{argv[0]}" if argv else "cli.main"
        return _spanned(tracer, name, fn)(argv)
    return main


def _backward(tracer: Tracer, fn):
    @functools.wraps(fn)
    def backward(self):
        tracer.begin("autodiff.backward")
        try:
            return fn(self)
        finally:
            tracer.end()
    return backward


@contextmanager
def instrument(tracer: Tracer | None):
    """Route calls into safnet through span-recording wrappers; a no-op when
    tracer is None. Every replaced binding is restored on exit."""
    if tracer is None:
        yield
        return
    global _active, _grid_cell_impl
    from safnet import asr, autodiff, cli, datamodel, dsp, metrics, synth, train
    from safnet.model import SafModel

    # the benchmark's own modules call safnet through names they imported
    modules = [m for name, m in list(sys.modules.items())
               if name == "safnet" or name.startswith("safnet.")
               or (name.startswith("safbench.") and name != __name__)]
    undo = []

    def replace(fn, wrapper):
        # also rebinds copies made by "from module import name"
        for mod in modules:
            for attr in [a for a, v in vars(mod).items() if v is fn]:
                undo.append((mod, attr, fn))
                setattr(mod, attr, wrapper)

    def replace_method(cls, attr, make):
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, make(tracer, original))

    for name in WRAPPED_OPS:
        fn = getattr(autodiff, name)
        replace(fn, _op_wrapper(tracer, name, fn, autodiff._wants_grad))
    replace_method(autodiff.Tensor, "backward", _backward)
    replace_method(SafModel, "encoder_forward", _encoder_forward)
    replace_method(SafModel, "predict", _predict)

    spans = {
        synth.generate_subject_recording: "synth.generate",
        dsp.resample: "dsp.resample", dsp.bandpass: "dsp.bandpass",
        dsp.notch: "dsp.notch", dsp.slice_epochs: "dsp.slice",
        dsp.preprocess_pipeline: "dsp.preprocess_pipeline",
        asr.asr_fit: "asr.fit", asr.asr_apply: "asr.apply",
        datamodel.read_ndf: "datamodel.read_ndf",
        datamodel.load_manifest: "datamodel.load_manifest",
        datamodel.read_recording: "datamodel.read_recording",
        metrics.log_band_power_features: "metrics.log_band_power",
        metrics.silhouette: "metrics.silhouette",
        metrics.f_statistic: "metrics.f_statistic",
        metrics.iqr_row_mask: "metrics.iqr_row_mask",
        train.fit: "train.fit",
        train.evaluate_macro_accuracy: "train.eval",
        train.grid_search: "train.grid_search",
    }
    for fn, name in spans.items():
        replace(fn, _spanned(tracer, name, fn))
    replace(asr.select_calibration, _calibration(tracer, asr.select_calibration))
    replace(datamodel.write_ndf,
            _writer(tracer, "datamodel.write_ndf", datamodel.write_ndf))
    replace(datamodel.write_manifest,
            _writer(tracer, "datamodel.write_manifest", datamodel.write_manifest))
    replace(train.compute_losses, _scoped(tracer, "train.compute_losses", "heads",
                                          train.compute_losses))
    replace(train.adam_step, _adam_closer(tracer, train.adam_step))
    replace(train.isbcs_augment_batch, _swap_counter(tracer, train.isbcs_augment_batch))
    replace(cli.main, _cli_main(tracer, cli.main))
    _grid_cell_impl = train._grid_cell
    replace(train._grid_cell, _traced_grid_cell)
    replace(ProcessPoolExecutor, _TracedPool)
    _active = tracer
    try:
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
        _active = None
        _grid_cell_impl = None


def _covered(intervals, start: int, end: int) -> int:
    """Length of the union of intervals clipped to [start, end]."""
    total = 0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self time in ms. Self time is the
    duration minus the part of it that the span's children cover."""
    children = defaultdict(list)
    for sid, parent, _, start, end, _ in spans:
        children[parent].append((start, end))
    out: dict[str, dict[str, float]] = {}
    for sid, _, name, start, end, _ in spans:
        agg = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        dur = end - start
        agg["calls"] += 1
        agg["total_ms"] += dur / 1e6
        agg["self_ms"] += (dur - _covered(children.get(sid, ()), start, end)) / 1e6
    return out


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(f"autodiff.{op}.{d}_ms", "ms", "lower")
     for op in REPORTED_OPS for d in ("fwd", "bwd")]
    + [("autodiff.backward.graph_ms", "ms", "lower"),
       ("autodiff.temporal_conv.gflops", "GFLOP/s", "higher"),
       ("gemm_ceiling_gflops", "GFLOP/s", "higher"),
       ("model.encoder_forward_ms.train", "ms", "lower"),
       ("model.predict_us_per_epoch", "us", "lower"),
       ("train.step_ms.p50", "ms", "lower"),
       ("train.step_ms.tail", "ms", "lower"),
       ("train.adam_ms", "ms", "lower"),
       ("train.eval_ms", "ms", "lower"),
       ("train.steps", "count", "higher"),
       ("train.fits", "count", "higher"),
       ("isbcs.augment_ms", "ms", "lower"),
       ("isbcs.swap_frac", "1", "higher"),
       ("grid.task_bytes", "bytes", "lower"),
       ("grid.worker_busy_frac", "1", "higher"),
       ("dsp.resample.ms", "ms", "lower"),
       ("dsp.bandpass.ms", "ms", "lower"),
       ("dsp.notch.ms", "ms", "lower"),
       ("dsp.slice.ms", "ms", "lower"),
       ("asr.select_calibration.ms", "ms", "lower"),
       ("asr.fit.ms", "ms", "lower"),
       ("asr.apply.ms", "ms", "lower"),
       ("asr.calib_fallback", "count", "lower"),
       ("datamodel.write_ndf.ms", "ms", "lower"),
       ("datamodel.load_manifest.ms", "ms", "lower"),
       ("datamodel.bytes_written", "bytes", "lower"),
       ("metrics.log_band_power.ms", "ms", "lower"),
       ("metrics.silhouette.ms", "ms", "lower"),
       ("metrics.f_statistic.ms", "ms", "lower"),
       ("metrics.iqr_row_mask.ms", "ms", "lower"),
       ("synth.generate.ms", "ms", "lower"),
       ("cli.preprocess.ms", "ms", "lower"),
       ("trace.wall_s", "s", "lower"),
       ("trace.untraced_wall_s", "s", "lower"),
       ("trace.overhead_pct", "%", "lower")])


def tail_percentile(values) -> float:
    """Value at the highest percentile that has at least ten samples beyond
    it; the median when there are too few samples."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.size == 0:
        return 0.0
    if v.size < 12:
        return float(np.median(v))
    return float(v[v.size - 11])  # exactly ten samples lie above it


def layer_metrics(tracer: Tracer, traced_rounds: int, walls: dict,
                  gemm_gflops: float) -> dict[str, float]:
    """Reduce the run's spans and counters to the PER_LAYER metrics. Layers
    the workload does not use read 0."""
    summary = summarize(tracer.spans)
    counters = tracer.counters

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def total(name):
        return summary.get(name, {}).get("total_ms", 0.0)

    def per_call(name):
        return total(name) / calls(name) if calls(name) else 0.0

    steps = calls("train.step")

    def per_step(ms):
        return ms / steps if steps else 0.0

    out: dict[str, float] = {}
    for op in REPORTED_OPS:
        for d in ("fwd", "bwd"):
            out[f"autodiff.{op}.{d}_ms"] = per_step(total(f"autodiff.{op}.{d}"))
    out["autodiff.backward.graph_ms"] = per_step(
        summary.get("autodiff.backward", {}).get("self_ms", 0.0))
    conv_ms = total("autodiff.temporal_conv.fwd") + total("autodiff.temporal_conv.bwd")
    out["autodiff.temporal_conv.gflops"] = (
        counters.get("autodiff.temporal_conv.flops", 0) / (conv_ms * 1e6)
        if conv_ms else 0.0)
    out["gemm_ceiling_gflops"] = gemm_gflops

    out["model.encoder_forward_ms.train"] = per_call("model.encoder_forward.train")
    samples = counters.get("model.predict.samples", 0)
    out["model.predict_us_per_epoch"] = (1e3 * total("model.predict") / samples
                                         if samples else 0.0)

    step_ms = [(e - s) / 1e6 for _, _, name, s, e, _ in tracer.spans
               if name == "train.step"]
    out["train.step_ms.p50"] = float(np.median(step_ms)) if step_ms else 0.0
    out["train.step_ms.tail"] = tail_percentile(step_ms)
    out["train.adam_ms"] = per_call("train.adam")
    out["train.eval_ms"] = per_call("train.eval")
    out["train.steps"] = float(steps)
    out["train.fits"] = float(calls("train.fit"))

    out["isbcs.augment_ms"] = per_call("isbcs.augment")
    slots = counters.get("isbcs.slots", 0)
    out["isbcs.swap_frac"] = counters.get("isbcs.swapped", 0) / slots if slots else 0.0

    out["grid.task_bytes"] = float(counters.get("grid.task_bytes", 0))
    worker_fit_ns = sum(e - s for sid, _, name, s, e, _ in tracer.spans
                        if name == "train.fit" and (sid >> 32) != tracer.owner_pid)
    grid_ms = total("train.grid_search")
    jobs = counters.get("grid.jobs", 0)
    out["grid.worker_busy_frac"] = (worker_fit_ns / 1e6 / (jobs * grid_ms)
                                    if jobs and grid_ms else 0.0)

    for name, span in (("dsp.resample.ms", "dsp.resample"),
                       ("dsp.bandpass.ms", "dsp.bandpass"),
                       ("dsp.notch.ms", "dsp.notch"),
                       ("dsp.slice.ms", "dsp.slice"),
                       ("asr.select_calibration.ms", "asr.select_calibration"),
                       ("asr.fit.ms", "asr.fit"),
                       ("asr.apply.ms", "asr.apply"),
                       ("datamodel.write_ndf.ms", "datamodel.write_ndf"),
                       ("datamodel.load_manifest.ms", "datamodel.load_manifest"),
                       ("metrics.log_band_power.ms", "metrics.log_band_power"),
                       ("metrics.silhouette.ms", "metrics.silhouette"),
                       ("metrics.f_statistic.ms", "metrics.f_statistic"),
                       ("metrics.iqr_row_mask.ms", "metrics.iqr_row_mask"),
                       ("synth.generate.ms", "synth.generate"),
                       ("cli.preprocess.ms", "cli.preprocess")):
        out[name] = per_call(span)
    out["asr.calib_fallback"] = float(counters.get("asr.calib_fallback", 0))
    out["datamodel.bytes_written"] = (
        counters.get("datamodel.bytes_written", 0) / traced_rounds
        if traced_rounds else 0.0)

    out["trace.wall_s"] = walls["traced"]
    out["trace.untraced_wall_s"] = walls["untraced"]
    out["trace.overhead_pct"] = (100.0 * (walls["traced"] / walls["untraced"] - 1.0)
                                 if walls["untraced"] else 0.0)
    return out


def op_shares(layers: dict[str, float]) -> dict[str, float]:
    """Each op's forward + backward time as a share of all op time plus the
    backward graph walk, per optimizer step."""
    times = {op: layers[f"autodiff.{op}.fwd_ms"] + layers[f"autodiff.{op}.bwd_ms"]
             for op in REPORTED_OPS}
    times["backward.graph"] = layers["autodiff.backward.graph_ms"]
    total = sum(times.values())
    return {op: t / total for op, t in times.items()} if total else {}
