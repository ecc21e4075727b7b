"""Span tracing of gsdyn's public functions, from outside the program.

A :class:`Tracer` replaces each traced function with a wrapper that records
a span (name, start, end, parent) in memory, plus the counts its hook takes
from the call's arguments or result.  The wrapper is installed at every
place the program looks the function up: the attribute of each ``gsdyn``
module that holds the original object (``train`` imports ``knn`` by name,
``cli`` imports the trajectory CSV helpers by name), or the class attribute
for methods.  ``uninstall`` puts the originals back, so untraced rounds run
the program exactly as shipped.

A layer's self time is its span's duration minus the time its direct child
spans cover.  The benchmark opens one root span around each traced setup
and round, so the self times of a phase sum to its traced wall time.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

MB = 1024.0 * 1024.0


def _rows(arg_index):
    """Hook counting the rows of the positions argument at ``arg_index``."""

    def hook(counts, name, args, kwargs, result):
        counts[name + ".rows"] += len(args[arg_index])

    return hook


def _zero_grads(counts, name, args, kwargs, result):
    counts["fields.grad_buffers_mb"] += sum(g.nbytes for g in result) / MB


def _rollout(counts, name, args, kwargs, result):
    cloud, config = args[0], args[3]
    counts["integrate.gaussian_steps"] += len(cloud) * config.step_count


def _project(counts, name, args, kwargs, result):
    counts["render.project.kept"] += result is not None


def _ppm_bytes(counts, name, args, kwargs, result):
    path = args[1] if len(args) > 1 else args[0]  # write_ppm(image, path) / read_ppm(path)
    counts[name + ".bytes"] += os.path.getsize(path)


def _bundle_bytes(counts, name, args, kwargs, result):
    counts[name + ".bytes"] += os.path.getsize(args[0])


def _csv_rows(counts, name, args, kwargs, result):
    positions = args[1] if result is None else result[1]  # export(times, positions, path) / import -> (times, positions)
    counts[name + ".rows"] += positions.shape[0] * positions.shape[1]


# (layer name, module, attribute path, hook).  Several functions may share a
# layer name; their spans and counts add up.
TARGETS = (
    ("feature_grid.lookup", "gsdyn.feature_grid", "lookup", _rows(1)),
    ("feature_grid.lookup_grad", "gsdyn.feature_grid", "lookup_grad", _rows(1)),
    ("feature_grid.tv", "gsdyn.feature_grid", "tv_loss", None),
    ("feature_grid.tv", "gsdyn.feature_grid", "tv_grad", None),
    ("fields.neural_forward", "gsdyn.fields", "NeuralVelocityField.forward", _rows(1)),
    ("fields.neural_backward", "gsdyn.fields", "NeuralVelocityField.backward", None),
    ("fields.zero_grads", "gsdyn.fields", "NeuralVelocityField.zero_grads", _zero_grads),
    ("fields.analytic", "gsdyn.fields", "AnalyticField.evaluate_batch", _rows(1)),
    ("fields.blend", "gsdyn.fields", "MaskedBlendField.evaluate_batch", None),
    ("quaternions.apply_increment", "gsdyn.quaternions", "apply_increment", None),
    ("scene.knn", "gsdyn.scene", "knn", None),
    ("scene.json_io", "gsdyn.scene", "load_scene", None),
    ("scene.json_io", "gsdyn.scene", "save_scene", None),
    ("scene.csv_io", "gsdyn.scene", "export_trajectory_csv", _csv_rows),
    ("scene.csv_io", "gsdyn.scene", "import_trajectory_csv", _csv_rows),
    ("arrayio.bundle_io", "gsdyn.arrayio", "save_bundle", _bundle_bytes),
    ("arrayio.bundle_io", "gsdyn.arrayio", "load_bundle", _bundle_bytes),
    ("integrate.rollout", "gsdyn.integrate", "rollout", _rollout),
    ("integrate.anchor_aware_rollout", "gsdyn.integrate", "anchor_aware_rollout", None),
    ("train.fit", "gsdyn.train", "fit", None),
    ("train.unroll_segment", "gsdyn.train", "unroll_segment", None),
    ("train.backward_through_rollout", "gsdyn.train", "backward_through_rollout", None),
    ("train.adam_step", "gsdyn.train", "adam_step", None),
    ("render.rasterize", "gsdyn.render", "rasterize", None),
    ("render.project", "gsdyn.render", "project", _project),
    ("render.ssim", "gsdyn.render", "ssim", None),
    ("render.psnr", "gsdyn.render", "psnr", None),
    ("render.ppm_io", "gsdyn.render", "write_ppm", _ppm_bytes),
    ("render.ppm_io", "gsdyn.render", "read_ppm", _ppm_bytes),
    ("cli.main", "gsdyn.cli", "main", None),
    ("cli.generate", "gsdyn.cli", "cmd_generate", None),
    ("cli.train", "gsdyn.cli", "cmd_train", None),
    ("cli.simulate", "gsdyn.cli", "cmd_simulate", None),
    ("cli.inject", "gsdyn.cli", "cmd_inject", None),
    ("cli.render", "gsdyn.cli", "cmd_render", None),
    ("cli.eval", "gsdyn.cli", "cmd_eval", None),
)

LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS))


class Tracer:
    """Records spans and counts while installed; keeps everything in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.missing = []  # targets this version of gsdyn no longer has
        self.installed = set()  # layer names with at least one wrapper
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    @contextmanager
    def span(self, name):
        """A span that the benchmark itself owns, e.g. the root of a round."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer.counts, name, args, kwargs, result)
            return result

        return traced

    def install(self):
        for name, module_name, attr, hook in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = None if owner is None else vars(owner).get(fn_name)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, original, hook)
            self.installed.add(name)
            if owner_name:
                self._patch(owner, fn_name, original, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "gsdyn" or mod_name.startswith("gsdyn."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def self_times(self):
        """Per-name (calls, self seconds) over every recorded span."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[idx]
        return calls, self_s

    def dump_spans(self):
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]


# Per-layer metrics of a traced round, with units.  ``calls`` and ``self_s``
# come from the spans; the other counts from the hooks above.
PER_LAYER = (
    ("feature_grid.lookup.calls", "count"),
    ("feature_grid.lookup.rows", "rows"),
    ("feature_grid.lookup.self_s", "s"),
    ("feature_grid.lookup_grad.calls", "count"),
    ("feature_grid.lookup_grad.rows", "rows"),
    ("feature_grid.lookup_grad.self_s", "s"),
    ("feature_grid.tv.self_s", "s"),
    ("fields.neural_forward.calls", "count"),
    ("fields.neural_forward.rows", "rows"),
    ("fields.neural_forward.self_s", "s"),
    ("fields.neural_backward.calls", "count"),
    ("fields.neural_backward.self_s", "s"),
    ("fields.grad_buffers_mb", "MB"),
    ("fields.analytic.rows", "rows"),
    ("fields.analytic.self_s", "s"),
    ("fields.blend.self_s", "s"),
    ("quaternions.apply_increment.self_s", "s"),
    ("train.fit.self_s", "s"),
    ("train.unroll_segment.self_s", "s"),
    ("train.backward_through_rollout.self_s", "s"),
    ("train.adam_step.self_s", "s"),
    ("train.epochs", "count"),
    ("scene.knn.self_s", "s"),
    ("integrate.rollout.calls", "count"),
    ("integrate.rollout.self_s", "s"),
    ("integrate.gaussian_steps", "count"),
    ("integrate.anchor_aware_rollout.calls", "count"),
    ("integrate.anchor_aware_rollout.self_s", "s"),
    ("integrate.useful_step_ratio", "ratio"),
    ("render.rasterize.calls", "count"),
    ("render.rasterize.self_s", "s"),
    ("render.project.calls", "count"),
    ("render.project.self_s", "s"),
    ("render.kept_ratio", "ratio"),
    ("render.ssim.self_s", "s"),
    ("render.psnr.self_s", "s"),
    ("render.ppm_io.self_s", "s"),
    ("render.ppm_io.bytes", "bytes"),
    ("scene.json_io.self_s", "s"),
    ("scene.csv_io.self_s", "s"),
    ("scene.csv_io.rows", "rows"),
    ("arrayio.bundle_io.self_s", "s"),
    ("arrayio.bundle_io.bytes", "bytes"),
    ("cli.main.self_s", "s"),
    ("cli.train.self_s", "s"),
    ("cli.simulate.self_s", "s"),
    ("cli.inject.self_s", "s"),
    ("cli.render.self_s", "s"),
    ("cli.eval.self_s", "s"),
    ("bench.round.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.span_cost_s", "s"),
    ("trace.spans", "count"),
)

# The same for the traced setup, prefixed ``setup.``: making the inputs
# integrates the analytic field at 1000 steps per unit and writes the scene.
SETUP_LAYER = (
    ("fields.analytic.rows", "rows"),
    ("fields.analytic.self_s", "s"),
    ("quaternions.apply_increment.self_s", "s"),
    ("scene.json_io.self_s", "s"),
    ("scene.csv_io.self_s", "s"),
    ("arrayio.bundle_io.self_s", "s"),
    ("train.fit.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.generate.self_s", "s"),
    ("cli.train.self_s", "s"),
    ("bench.setup.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.span_cost_s", "s"),
)

METRIC_LAYER = {
    "train.epochs": "train.adam_step",
    "fields.grad_buffers_mb": "fields.zero_grads",
    "integrate.gaussian_steps": "integrate.rollout",
    "integrate.useful_step_ratio": "integrate.rollout",
    "render.kept_ratio": "render.project",
}


def span_cost(calls=20000):
    """Seconds that wrapping adds to one call, timed on a no-op function."""

    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop, None)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(time.perf_counter() - start - plain, 0.0) / calls


def _phase(tracer, root, useful_gsteps=0):
    """Every metric of one traced phase whose root span is ``root``."""
    calls, self_s = tracer.self_times()
    values = dict(tracer.counts)
    for layer in set(calls) | set(LAYERS):
        values[f"{layer}.calls"] = calls.get(layer, 0)
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    steps = values.get("integrate.gaussian_steps", 0)
    projected = values["render.project.calls"]
    values["train.epochs"] = calls.get("train.adam_step", 0)
    values["integrate.useful_step_ratio"] = useful_gsteps / steps if steps else 0.0
    values["render.kept_ratio"] = values.get("render.project.kept", 0) / projected if projected else 0.0
    values["trace.wall_s"] = next(e - s for n, s, e, _ in tracer.spans if n == root)
    values["trace.self_sum_s"] = sum(self_s.values())
    values["trace.spans"] = len(tracer.spans)
    return values


def _select(values, table, installed, prefix=""):
    out = {}
    for name, unit in table:
        layer = METRIC_LAYER.get(name, name.rpartition(".")[0])
        if layer in LAYERS and layer not in installed:
            continue  # the function is gone from this version of gsdyn
        out[prefix + name] = {"value": values.get(name, 0), "unit": unit}
    return out


def per_layer(setup_tracer, untraced_setup_s, traced, untraced):
    """Per-layer metrics: the traced setup, and the mean over traced rounds.

    ``traced`` pairs each traced round's result with its tracer; ``untraced``
    holds the untraced rounds of the same run.  Means keep the self times of
    a round summing to its wall time.  The overhead is traced minus
    untraced wall time; the span cost is the span count times the cost of
    one wrapped call, which the machine's noise does not swamp.
    """
    setup = _phase(setup_tracer, "bench.setup")
    setup["trace.overhead_s"] = setup["trace.wall_s"] - untraced_setup_s
    rounds = [_phase(t, "bench.round", r.useful_gsteps) for r, t in traced]
    mean = {k: sum(r.get(k, 0) for r in rounds) / len(rounds) for k in set().union(*rounds)}
    mean["trace.overhead_s"] = mean["trace.wall_s"] - sum(r.pass_s for r in untraced) / len(untraced)
    cost = span_cost()
    mean["trace.span_cost_s"] = mean["trace.spans"] * cost
    setup["trace.span_cost_s"] = setup["trace.spans"] * cost
    installed = set(setup_tracer.installed)
    metrics = _select(mean, PER_LAYER, installed)
    metrics.update(_select(setup, SETUP_LAYER, installed, prefix="setup."))
    return metrics
