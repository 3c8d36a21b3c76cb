"""Timing hooks at the boundaries of swinseg's layers.

Two kinds of hook, both installed from outside the program by replacing
module attributes (and, for the model, class attributes) with wrappers:

* ``UnitClocks`` is always on. It gives the per-unit times the end-to-end
  metrics are medians of: one training step (the interval between the ends
  of consecutive ``adamw_step`` calls of one ``run_training`` call), one
  sliding window and one segmented volume (z-score + sliding window + argmax
  + keep-largest), and samples the ``Gauge`` between units.
* ``Tracer`` is on only in the traced run. It wraps every public function of
  every swinseg module under the name its caller looks up (for example
  ``training.read_mvol`` next to ``volio.read_mvol``), plus the model's
  forward methods, and times an op's backward by wrapping the ``_backward``
  closure of the tensor the op returns. Spans stay in memory; ``layer_metrics``
  folds them into the per-layer table at the end of the run.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import os
import statistics
import time

import numpy as np

MODULES = ("autodiff", "model", "volio", "preprocess", "lossmetrics",
           "postprocess", "training", "phantom", "cli")
# helpers called inside every op, or that return a context manager; wrapping
# them would time the tracer, not the program
SKIP = {"autodiff.as_tensor", "autodiff.no_grad", "autodiff.grad_enabled",
        "autodiff.check_finite"}
# cli: only the entry point, so that its self time is the CLI's own overhead
CLI_KEEP = {"cli.main"}
METHODS = (("model", "SwinSegModel", "forward"),
           ("model", "SwinSegModel", "encoder_forward"),
           ("model", "SwinSegModel", "decoder_forward"))
CLASSMETHODS = (("lossmetrics", "OneHotTarget", "from_labelmap"),)

# autodiff ops reported as their own fwd/bwd rows, by row name
OP_ROWS = {"autodiff.conv3d": "conv3d", "autodiff.conv_transpose3d": "conv_transpose3d",
        "autodiff.matmul": "matmul", "autodiff.instance_norm": "norm",
        "autodiff.layer_norm": "norm"}
POINTWISE = {"softmax", "gelu", "sigmoid", "add", "mul", "div", "reduce_sum", "reduce_mean"}
SHAPE = {"reshape", "permute", "pad", "concat", "slice_"}


def _mod(name):
    return importlib.import_module(f"swinseg.{name}")


class _Patcher:
    """Replaces attributes and puts the originals back on ``restore``."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


class Gauge:
    """Machine-speed gauge: a fixed numpy kernel, independent of swinseg.

    The core the benchmark runs on is shared, and its speed drifts: a
    training step was seen to take from 0.87x to 1.29x its median within one
    minute. The gauge is one 3x3x3 convolution written as im2col + GEMM (12
    channels, 16^3, in buffers allocated once), the shape of the work that
    dominates swinseg. It is timed between units, and each unit's time is
    scaled by the median gauge time within PAD_S of it, to the time on a core
    where the gauge takes NOMINAL_S."""

    NOMINAL_S = 0.011   # the gauge's typical time on the machine the bounds were set on
    PAD_S = 2.0
    REPEAT = 6

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((12, 18, 18, 18), dtype=np.float32)
        self._w = rng.standard_normal((12, 12 * 27), dtype=np.float32)
        self._cols = np.empty((12, 3, 3, 3, 16, 16, 16), np.float32)
        self._out = np.empty((12, 16 ** 3), np.float32)
        self.at: list[float] = []     # sample midpoints
        self.secs: list[float] = []
        self.spent = 0.0              # total time inside the gauge
        self._timed_kernel()          # first touch of the buffers, not a sample

    def _timed_kernel(self):
        t0 = time.perf_counter()
        for _ in range(self.REPEAT):
            view = np.lib.stride_tricks.sliding_window_view(self._x, (3, 3, 3), axis=(1, 2, 3))
            np.copyto(self._cols, view.transpose(0, 4, 5, 6, 1, 2, 3))
            np.matmul(self._w, self._cols.reshape(12 * 27, -1), out=self._out)
        t1 = time.perf_counter()
        self.spent += t1 - t0
        return t0, t1

    def sample(self):
        t0, t1 = self._timed_kernel()
        self.at.append(0.5 * (t0 + t1))
        self.secs.append(t1 - t0)

    def scale(self, lo, hi):
        """NOMINAL_S over the median gauge time around [lo, hi]."""
        i = bisect.bisect_left(self.at, lo - self.PAD_S)
        j = bisect.bisect_right(self.at, hi + self.PAD_S)
        near = self.secs[i:j] or [self.secs[min(i, len(self.secs) - 1)]]
        return self.NOMINAL_S / statistics.median(near)


class UnitClocks:
    """Per-unit wall times, taken at layer boundaries, without gauge time.

    A training step is the interval between the ends of consecutive
    ``adamw_step`` calls of one ``run_training`` call. A segmented volume is
    the sum of its z-score, sliding-window, argmax and keep-largest calls;
    each window is the ``forward`` call made inside the sliding window. The
    gauge is sampled after every step and before every GAUGE_EVERY-th window."""

    GAUGE_EVERY = 3

    def __init__(self, gauge: Gauge):
        self.gauge = gauge
        self.steps: list[tuple[float, float, float]] = []     # start, end, seconds
        self.windows: list[tuple[float, float, float]] = []
        # start, end, seconds, dims, windows, seconds inside windows
        self.volumes: list[tuple[float, float, float, tuple, int, float]] = []
        self._last_step = None        # (end, gauge time spent) of the previous step
        self._zscore = (0.0, 0.0)     # (start, seconds) of the latest z-score
        self._volume = None           # [start, seconds, dims, windows, window seconds]
        self._patch = _Patcher()

    def install(self):
        tr, pre, mdl, post = _mod("training"), _mod("preprocess"), _mod("model"), _mod("postprocess")
        self._patch.set(tr, "run_training", self._call_start(tr.run_training))
        self._patch.set(tr, "adamw_step", self._step_end(tr.adamw_step))
        # segmentation: pseudolabel looks the four calls up in training,
        # `segctl infer` in their defining modules
        for m in (tr, pre):
            self._patch.set(m, "zscore", self._timed(m.zscore, "zscore"))
        self._patch.set(tr, "sliding_window_infer",
                        self._timed(tr.sliding_window_infer, "window"))
        for m in (tr, mdl):
            self._patch.set(m, "predict_labels", self._timed(m.predict_labels, "argmax"))
        for m in (tr, post):
            self._patch.set(m, "keep_largest_per_label",
                            self._timed(m.keep_largest_per_label, "keep"))
        cls = mdl.SwinSegModel
        self._patch.set(cls, "forward", self._forward(cls.__dict__["forward"]))
        return self

    def restore(self):
        self._patch.restore()

    def mark(self):
        return len(self.steps), len(self.windows), len(self.volumes)

    def since(self, mark):
        """Steps, windows and volumes recorded after ``mark``."""
        s, w, v = mark
        return self.steps[s:], self.windows[w:], self.volumes[v:]

    def _call_start(self, fn):
        @functools.wraps(fn)
        def wrapper(*a, **k):
            self._last_step = None
            return fn(*a, **k)
        return wrapper

    def _step_end(self, fn):
        @functools.wraps(fn)
        def wrapper(*a, **k):
            out = fn(*a, **k)
            now = time.perf_counter()
            if self._last_step is not None:
                end, spent = self._last_step
                self.steps.append((end, now, now - end - (self.gauge.spent - spent)))
            self._last_step = (now, self.gauge.spent)
            self.gauge.sample()
            return out
        return wrapper

    def _forward(self, fn):
        @functools.wraps(fn)
        def wrapper(*a, **k):
            vol = self._volume
            if vol is None:
                return fn(*a, **k)
            if vol[3] % self.GAUGE_EVERY == 0:
                self.gauge.sample()
            t0 = time.perf_counter()
            out = fn(*a, **k)
            t1 = time.perf_counter()
            self.windows.append((t0, t1, t1 - t0))
            vol[3] += 1
            vol[4] += t1 - t0
            return out
        return wrapper

    def _timed(self, fn, part):
        @functools.wraps(fn)
        def wrapper(*a, **k):
            t0 = time.perf_counter()
            spent = self.gauge.spent
            if part == "window":
                start, secs = self._zscore if self._zscore[1] else (t0, 0.0)
                self._volume = [start, secs, tuple(a[1].dims), 0, 0.0]
                self._zscore = (0.0, 0.0)
            try:
                out = fn(*a, **k)
            except BaseException:
                self._volume = None
                raise
            t1 = time.perf_counter()
            dt = t1 - t0 - (self.gauge.spent - spent)
            if part == "zscore":
                self._zscore = (t0, dt)
            elif self._volume is not None:
                self._volume[1] += dt
                if part == "keep":
                    start, secs, dims, n, win = self._volume
                    self.volumes.append((start, t1, secs, dims, n, win))
                    self._volume = None
            return out
        return wrapper


class Tracer:
    """Spans (name id, start, end, parent index) of every wrapped call."""

    def __init__(self):
        self.names: list[str] = []        # span name, as the caller looks it up
        self.layers: list[str] = []       # defining module.function
        self.spans: list = []
        self.extra: dict[int, float] = {}  # flops or bytes, by span index
        self._stack: list[int] = []
        self._ids: dict[tuple, int] = {}
        self._starts = None
        self._patch = _Patcher()

    # -- installation ---------------------------------------------------
    def install(self):
        for short in MODULES:
            mod = _mod(short)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                base = inspect.unwrap(obj)
                if not base.__module__.startswith("swinseg."):
                    continue
                layer = f"{base.__module__.split('.')[-1]}.{base.__name__}"
                if layer in SKIP or (layer.startswith("cli.") and layer not in CLI_KEEP):
                    continue
                self._patch.set(mod, attr, self._wrap(obj, f"{short}.{attr}", layer))
        for short, cls_name, meth in METHODS:
            cls = getattr(_mod(short), cls_name)
            name = f"{short}.{cls_name}.{meth}"
            self._patch.set(cls, meth, self._wrap(cls.__dict__[meth], name, name))
        for short, cls_name, meth in CLASSMETHODS:
            cls = getattr(_mod(short), cls_name)
            name = f"{short}.{cls_name}.{meth}"
            fn = cls.__dict__[meth].__func__
            self._patch.set(cls, meth, classmethod(self._wrap(fn, name, name)))
        return self

    def restore(self):
        self._patch.restore()

    def _id(self, name, layer):
        key = (name, layer)
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[key]

    def _wrap(self, fn, name, layer):
        nid = self._id(name, layer)
        bwd_id = (self._id(name + ".bwd", layer + ".bwd")
                  if layer.startswith("autodiff.") else None)
        spans, stack, extra = self.spans, self._stack, self.extra
        post = self._post_hook(layer)

        @functools.wraps(fn)
        def wrapper(*a, **k):
            idx = len(spans)
            spans.append((nid, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*a, **k)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (nid, t0, t1, spans[idx][3])
            if bwd_id is not None and getattr(out, "_backward", None) is not None:
                out._backward = self._wrap_backward(out._backward, bwd_id,
                                                    extra.get(idx, 0.0), out)
            if post is not None:
                post(idx, a, k, out)
            return out
        return wrapper

    def _wrap_backward(self, bw, bwd_id, fwd_flops, out):
        spans, stack, extra = self.spans, self._stack, self.extra
        # each gradient a conv computes costs as much as its forward
        n_grads = sum(1 for p in out._parents[:2] if p.requires_grad)

        def timed_bw(g, grads):
            idx = len(spans)
            spans.append((bwd_id, 0.0, 0.0, stack[-1] if stack else -1))
            t0 = time.perf_counter()
            try:
                bw(g, grads)
            finally:
                spans[idx] = (bwd_id, t0, time.perf_counter(), spans[idx][3])
            if fwd_flops:
                extra[idx] = fwd_flops * n_grads
        return timed_bw

    def _post_hook(self, layer):
        extra = self.extra
        if layer == "autodiff.conv3d":
            def conv_flops(idx, a, k, out):
                w = (a[1] if len(a) > 1 else k["w"]).shape   # (Cout, Cin, k, k, k)
                extra[idx] = 2.0 * w[0] * w[1] * w[2] ** 3 * out.data[0].size
            return conv_flops
        if layer in ("volio.write_mvol", "model.save_checkpoint"):
            def file_bytes(idx, a, k, out):
                extra[idx] = float(os.path.getsize(a[1] if len(a) > 1 else k["path"]))
            return file_bytes
        return None

    # -- aggregation ------------------------------------------------------
    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        out = [t1 - t0 for _, t0, t1, _ in self.spans]
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                out[parent] -= t1 - t0
        return out

    def rows(self, lo, hi, selft):
        """Self time (s) per layer over the spans that lie inside [lo, hi];
        ``selft`` is ``self_times()``."""
        if self._starts is None or len(self._starts) != len(self.spans):
            self._starts = [s[1] for s in self.spans]   # spans start in index order
        out: dict[str, float] = {}
        for i in range(bisect.bisect_left(self._starts, lo), len(self.spans)):
            nid, t0, t1, _ = self.spans[i]
            if t0 > hi:
                break
            if t1 <= hi:
                key = self.layers[nid]
                out[key] = out.get(key, 0.0) + selft[i]
        return out

    def dump(self):
        return {"names": self.names, "layers": self.layers,
                "spans": [[n, round(t0, 7), round(t1, 7), p] for n, t0, t1, p in self.spans],
                "extra": {str(k): v for k, v in self.extra.items()}}


def _median(xs, default=0.0):
    return statistics.median(xs) if xs else default


def layer_metrics(tr: Tracer, rounds: int, setup_end: float) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced run;
    ``setup_end`` is the end of the timed set-up."""
    spans, layers = tr.spans, tr.layers
    n = len(spans)
    dur = [t1 - t0 for _, t0, t1, _ in spans]
    selft = tr.self_times()
    lay = [layers[s[0]] for s in spans]
    index: dict[str, list[int]] = {}
    for i, name in enumerate(lay):
        index.setdefault(name, []).append(i)
    parent_layer = [lay[s[3]] if s[3] >= 0 else "" for s in spans]
    # which spans run inside a training loop / a cli call
    in_train = [False] * n
    in_cli = [False] * n
    for i, (_, _, _, p) in enumerate(spans):
        if p >= 0:
            in_train[i] = in_train[p] or lay[p] == "training.run_training"
            in_cli[i] = in_cli[p] or lay[p] == "cli.main"

    def by(layer):
        return index.get(layer, [])

    fwd_calls = by("model.SwinSegModel.forward")
    n_fwd = max(1, len(fwd_calls))
    n_train_patches = max(1, len(by("lossmetrics.soft_dice_loss")))
    steps = [i for i in by("autodiff.backward") if in_train[i]]
    n_steps = max(1, len(steps))
    m: dict[str, float] = {}

    def total(names, suffix=""):
        return sum(selft[i] for x in names for i in by(x + suffix))

    for key in ("conv3d", "conv_transpose3d", "matmul", "norm"):
        names = [k for k, v in OP_ROWS.items() if v == key]
        m[f"autodiff.{key}.fwd_ms"] = 1e3 * total(names) / n_fwd
        m[f"autodiff.{key}.bwd_ms"] = 1e3 * total(names, ".bwd") / n_train_patches
    conv_f = by("autodiff.conv3d")
    conv_b = by("autodiff.conv3d.bwd")
    m["autodiff.conv3d.calls"] = len(conv_f) / n_fwd
    conv_t = sum(selft[i] for i in conv_f + conv_b)
    conv_flops = sum(tr.extra.get(i, 0.0) for i in conv_f + conv_b)
    m["autodiff.conv3d.gflop_per_s"] = conv_flops / conv_t / 1e9 if conv_t else 0.0
    pw = [f"autodiff.{x}" for x in POINTWISE]
    sh = [f"autodiff.{x}" for x in SHAPE]
    m["autodiff.pointwise_ms"] = 1e3 * (total(pw) + total(pw, ".bwd")) / n_fwd
    m["autodiff.shape_ms"] = 1e3 * (total(sh) + total(sh, ".bwd")) / n_fwd
    m["autodiff.backward_ms"] = 1e3 * _median([dur[i] for i in steps])
    ops = sum(1 for i in range(n) if in_train[i] and lay[i].startswith("autodiff.")
              and not lay[i].endswith(".bwd") and lay[i] != "autodiff.backward")
    m["autodiff.ops_per_step"] = ops / n_steps

    def med_ms(layer, pick=None):
        idx = by(layer) if pick is None else [i for i in by(layer) if pick(i)]
        return 1e3 * _median([dur[i] for i in idx])

    m["model.forward_ms"] = med_ms("model.SwinSegModel.forward")
    m["model.encoder_ms"] = med_ms("model.SwinSegModel.encoder_forward")
    m["model.decoder_ms"] = med_ms("model.SwinSegModel.decoder_forward")
    m["model.save_checkpoint_ms"] = med_ms("model.save_checkpoint")
    m["model.load_checkpoint_ms"] = med_ms("model.load_checkpoint")
    m["model.checkpoint_bytes"] = _median([tr.extra.get(i, 0.0) for i in by("model.save_checkpoint")])
    m["training.augment_ms"] = med_ms("training.augment")
    m["training.sample_patch_ms"] = med_ms("training.sample_patch")
    m["training.adamw_ms"] = med_ms("training.adamw_step")
    windows = [i for i in fwd_calls if parent_layer[i] == "training.sliding_window_infer"]
    m["training.window_ms"] = 1e3 * _median([dur[i] for i in windows])
    m["training.windows_per_volume"] = len(windows) / max(1, len(by("training.sliding_window_infer")))
    m["lossmetrics.onehot_ms"] = med_ms("lossmetrics.OneHotTarget.from_labelmap")
    m["lossmetrics.soft_dice_ms"] = med_ms("lossmetrics.soft_dice_loss")
    m["lossmetrics.evaluate_pair_ms"] = med_ms("lossmetrics.evaluate_pair")
    m["postprocess.keep_largest_ms"] = med_ms("postprocess.keep_largest_per_label")
    m["preprocess.zscore_ms"] = med_ms("preprocess.zscore")
    m["volio.read_ms"] = med_ms("volio.read_mvol")
    m["volio.write_ms"] = med_ms("volio.write_mvol")
    m["volio.bytes_written"] = sum(tr.extra.get(i, 0.0) for i in by("volio.write_mvol")
                                   if in_cli[i]) / max(1, rounds)
    m["phantom.build_s"] = sum(dur[i] for i in range(n) if lay[i].startswith("phantom.")
                               and not parent_layer[i].startswith("phantom.")
                               and spans[i][2] <= setup_end)
    mains = by("cli.main")
    m["cli.calls"] = len(mains) / max(1, rounds)
    m["cli.overhead_ms"] = 1e3 * _median([selft[i] for i in mains])
    return m
