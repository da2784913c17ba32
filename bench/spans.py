"""Spans around oceseg's public functions, for the traced benchmark run.

``Tracer.install`` replaces functions in the ``oceseg`` modules with timing
wrappers and ``Tracer.uninstall`` puts the originals back; nothing in the
package itself changes.  Spans live in memory as
``[name, start, end, parent, attrs]`` rows and are summarised (or written
out) when the run ends.  Span names are ``<module>.<function>``, so each
oceseg module is one layer of the report.

Convolutions are told apart by position: every ``network.forward`` call
runs the 13 convolutions of ``network._layer_plan`` in plan order, so the
n-th ``conv2d_valid`` call inside a forward is plan entry n.  Backward
attributes a conv tape node to its layer through the weight tensor it
holds, which the forward wrapper registered.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time

import numpy as np

from oceseg import autodiff, cli, data, loss, network, segmentation, synth

# tape node op -> span name prefix for its backward
_BWD_NAMES = {"pair_offset_loss": "loss.oce_loss"}
_FWD_OPS = ("relu", "maxpool2", "upsample_nearest2", "crop_concat")


def conv_flops(cin: int, cout: int, k: int, height: int, width: int) -> int:
    """Multiply-adds x 2 of one valid k x k convolution over a cin x height x width input."""
    return 2 * cout * cin * k * k * (height - k + 1) * (width - k + 1)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.recording = False
        self.nonfinite = 0  # forward outputs holding NaN or inf
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._plan: list = []
        self._conv_index = 0
        self._weight_layer: dict[int, str] = {}

    # -- spans -------------------------------------------------------------

    def begin(self, name: str, attrs=None) -> int:
        if not self.recording:
            return -1
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, attrs or {}])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, **attrs) -> None:
        if idx < 0:
            return
        row = self.spans[idx]
        row[2] = time.perf_counter()
        row[4].update(attrs)
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def timed(self, name: str, fn, describe=None, attrs=None):
        """``fn`` wrapped in a span; ``describe(args, result)`` adds attributes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name, dict(attrs) if attrs else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(idx, error=True)
                raise
            self.end(idx, **(describe(args, result) if describe and idx >= 0 else {}))
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, owner, attr: str, name: str, describe=None) -> None:
        self._patch(owner, attr, self.timed(name, getattr(owner, attr), describe))

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        self._patch(network, "forward", self._traced_forward(network.forward))
        self._patch(segmentation, "forward", network.forward)
        self._patch(network, "conv2d_valid", self._traced_conv(network.conv2d_valid))
        for op in _FWD_OPS:
            self._wrap(network, op, f"autodiff.{op}.fwd")
        self._wrap(loss, "gather_coords", "autodiff.gather_coords.fwd")
        self._patch(autodiff.Tape, "backward", self._traced_backward(autodiff.Tape.backward))

        self._wrap(network, "sample_pairs", "loss.sample_pairs")
        self._wrap(network, "oce_loss", "loss.oce_loss.fwd")
        self._wrap(network, "adam_step", "network.adam_step")
        self._wrap(cli, "save_checkpoint", "network.save_checkpoint")

        self._wrap(cli, "segment_image", "segmentation.segment_image")
        self._wrap(segmentation, "predict_full", "segmentation.predict_full",
                   lambda a, r: {"kept_px": r.shape[1] * r.shape[2]})
        self._wrap(segmentation, "embedding_variance", "segmentation.embedding_variance")
        self._wrap(segmentation, "detect_foreground", "segmentation.detect_foreground")
        self._wrap(segmentation, "segment", "segmentation.segment")
        self._wrap(segmentation, "mean_shift", "segmentation.mean_shift",
                   lambda a, r: {"points": len(r[1]), "modes": len(r[0])})
        self._wrap(segmentation, "shrink_instances", "segmentation.shrink_instances",
                   lambda a, r: {"instances": int(r.max(initial=0))})

        self._wrap(cli, "threshold_sweep", "metrics.threshold_sweep")
        self._wrap(cli, "seg_score_dataset", "metrics.seg_score_dataset")
        self._wrap(data, "load_dataset", "data.load_dataset")
        self._wrap(data, "tensor_write", "data.tensor_write")
        self._wrap(synth, "synth_generate", "synth.synth_generate")
        self._wrap(cli, "main", "cli.main",
                   lambda a, r: {"command": (a[0] if a else [None])[0]})

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _traced_forward(self, fn):
        @functools.wraps(fn)
        def forward(params, image):
            self._plan = network._layer_plan(params.config)
            self._conv_index = 0
            self._weight_layer.update(
                {id(params[name + ".w"]): name for name, *_ in self._plan}
            )
            idx = self.begin("network.forward")
            try:
                out = fn(params, image)
            except BaseException:
                self.end(idx, error=True)
                raise
            if not np.isfinite(out.data).all():
                self.nonfinite += 1
            self.end(idx, out_px=out.shape[1] * out.shape[2])
            return out

        return forward

    def _traced_conv(self, fn):
        @functools.wraps(fn)
        def conv2d_valid(x, w, b):
            name, cin, cout, k = self._plan[self._conv_index]
            self._conv_index += 1
            if w.shape != (cout, cin, k, k):
                raise RuntimeError(
                    f"conv call {self._conv_index} has weights {w.shape}, "
                    f"plan entry {name} expects {(cout, cin, k, k)}"
                )
            flops = conv_flops(cin, cout, k, x.shape[1], x.shape[2])
            idx = self.begin(f"autodiff.conv.{name}.fwd", {"flops": flops})
            try:
                return fn(x, w, b)
            finally:
                self.end(idx)

        return conv2d_valid

    def _backward_span(self, node):
        if node.op == "conv2d_valid":
            x, w = node.inputs[0], node.inputs[1]
            cout, cin, k, _ = w.shape
            fwd = conv_flops(cin, cout, k, x.shape[1], x.shape[2])
            # backward forms both dW and dX, each as many multiply-adds as forward
            return f"autodiff.conv.{self._weight_layer[id(w)]}.bwd", {"flops": 2 * fwd}
        return _BWD_NAMES.get(node.op, "autodiff." + node.op) + ".bwd", None

    def _traced_backward(self, fn):
        tracer = self

        @functools.wraps(fn)
        def backward(tape, loss_tensor):
            if tracer.recording:
                for node in tape.nodes:
                    name, attrs = tracer._backward_span(node)
                    node.backward = tracer.timed(name, node.backward, attrs=attrs)
            idx = tracer.begin("autodiff.tape_backward")
            try:
                fn(tape, loss_tensor)
            finally:
                tracer.end(idx)

        return backward

    # -- summary -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [row[2] - row[1] for row in self.spans]
        for row in self.spans:
            if row[3] >= 0:
                own[row[3]] -= row[2] - row[1]
        return own

    def roots(self) -> list[int]:
        """Index of each span's outermost ancestor (itself when top-level)."""
        root: list[int] = []
        for i, row in enumerate(self.spans):
            root.append(i if row[3] < 0 else root[row[3]])
        return root

    def summary(self, root_name=None) -> dict:
        """Per span name: calls, median and total inclusive ms, total self ms,
        and the totals of every numeric attribute.  With ``root_name`` only
        spans under a top-level span of that name count."""
        own = self.self_times()
        root = self.roots()
        out: dict[str, dict] = {}
        for row, self_s, r in zip(self.spans, own, root):
            if root_name is not None and self.spans[r][0] != root_name:
                continue
            name, start, end, _, attrs = row
            s = out.setdefault(name, {"calls": 0, "durations": [], "self_ms": 0.0, "attrs": {}})
            s["calls"] += 1
            s["durations"].append((end - start) * 1e3)
            s["self_ms"] += self_s * 1e3
            for key, value in attrs.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    s["attrs"][key] = s["attrs"].get(key, 0) + value
        for s in out.values():
            d = s.pop("durations")
            s["median_ms"] = statistics.median(d)
            s["total_ms"] = sum(d)
        return out

    def dump(self) -> list[dict]:
        """Spans as plain records, times in ms from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {"id": i, "name": n, "start_ms": (s - t0) * 1e3, "end_ms": (e - t0) * 1e3,
             "parent": p, **a}
            for i, (n, s, e, p, a) in enumerate(self.spans)
        ]
