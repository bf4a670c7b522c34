"""Outside-in tracer for the traced benchmark run.

Every traced function is replaced, at every module binding that refers to
it, by a wrapper that records one span (name, start, end, parent) and a few
exact counters.  ``apply_batch`` for example is imported separately into
``training``, ``evaluation`` and ``theory``; each of those bindings is
wrapped, as is the defining module's own binding, so calls made inside the
defining module are seen too.  Nothing in the program is edited: the
wrappers are installed after import and removed when tracing stops.

Spans stay in memory and are written once, when the run ends.  A span's
self time is its duration minus the time covered by its direct children.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

# module -> public functions traced in it
TRACED = {
    "datasets": ("gen_minidigits",),
    "transforms": ("apply_batch",),
    "tensor": ("backward",),
    "model": ("logits", "logits_array", "save_weights", "load_weights"),
    "regularizers": ("penalty", "aux_update"),
    "wasserstein": ("w1_exact", "w1_matching"),
    "training": ("train", "select_worst"),
    "evaluation": ("evaluate", "accuracy", "robust_accuracy", "invariance_per_class"),
    "theory": ("check_efficiency", "check_vertices", "check_a6", "check_prop_a2",
               "bound_terms", "run_all_checks"),
    "cli": ("cmd_train", "cmd_eval", "cmd_theory"),
}

TRANSFORM_KINDS = {"Rotate": "rotate", "FreqCutoff": "freq",
                   "PixelMap": "pixel", "Identity": "identity"}

# Layer -> workload whose traced run must record it.  The coverage check
# fails a traced run when a layer mapped to its workload has no self time.
# Each layer is stressed by that workload; the end-to-end metric it should
# move is listed in benchmarks/README.md.
COVERAGE = {
    "headline": (
        "model.logits", "model.logits_array", "tensor.backward",
        "transforms.apply_batch.rotate", "transforms.apply_batch.identity",
        "regularizers.penalty.sql2", "training.train",
        "evaluation.evaluate", "evaluation.accuracy",
        "evaluation.robust_accuracy", "evaluation.invariance_per_class",
    ),
    "cli-mixed": (
        "cli.cmd_train", "cli.cmd_theory", "datasets.gen_minidigits",
        "transforms.apply_batch.freq", "training.train", "training.select_worst",
        "regularizers.penalty.l1", "regularizers.penalty.sql2",
        "regularizers.penalty.cos", "regularizers.penalty.kl",
        "regularizers.penalty.w1-exact", "regularizers.penalty.disc",
        "regularizers.aux_update", "wasserstein.w1_matching",
        "model.save_weights", "model.logits", "tensor.backward",
    ),
    "theory-audit": (
        "cli.cmd_eval", "cli.cmd_theory", "model.load_weights",
        "model.logits_array", "datasets.gen_minidigits",
        "transforms.apply_batch.freq", "transforms.apply_batch.rotate",
        "transforms.apply_batch.pixel", "transforms.apply_batch.identity",
        "wasserstein.w1_exact", "theory.run_all_checks", "theory.check_efficiency",
        "theory.check_vertices", "theory.check_a6", "theory.check_prop_a2",
        "theory.bound_terms", "evaluation.evaluate",
    ),
}


def _rows(x) -> int:
    return int(getattr(x, "shape", (0,))[0])


class Tracer:
    """Installs wrappers, records spans and counters, and aggregates them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span, in start order; flat arrays keep the garbage
        # collector from scanning every span while the program runs
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_hook = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._unique_pairs: set = set()  # hashes of (member, input image)
        self._patches: list = []       # (owner, attribute, original)
        self.bindings: dict[str, list] = {}

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, qualname: str, fn, on_call):
        names, parents = self.span_name, self.span_parent
        starts, ends, hooks = self.span_start, self.span_end, self.span_hook
        stack = self._stack
        base_id = self._name_id(qualname)

        def traced(*args, **kwargs):
            # counter hooks run before the span starts; their time is kept
            # apart so that it lands in no layer's self time
            hook_start = time.perf_counter()
            nid = on_call(args, kwargs) if on_call is not None else base_id
            index = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            start = time.perf_counter()
            starts.append(start)
            hooks.append(start - hook_start)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _count_hook(self, qualname: str):
        """Per-function counters, computed from the call's arguments."""
        counts = self.counts
        if qualname == "transforms.apply_batch":
            ids = {kind: self._name_id(f"{qualname}.{kind}")
                   for kind in TRANSFORM_KINDS.values()}
            pairs = self._unique_pairs

            def on_call(args, kwargs):
                t, images = args[0], args[1]
                n = _rows(images)
                counts["transforms.images"] += n
                member = t.name()
                flat = images.reshape(n, -1)
                pairs.update(hash((member, row.tobytes())) for row in flat)
                return ids[TRANSFORM_KINDS[type(t).__name__]]
            return on_call
        if qualname in ("model.logits", "model.logits_array"):
            def on_call(args, kwargs, key=qualname + ".rows",
                        nid=self._name_id(qualname)):
                counts[key] += _rows(args[1])
                return nid
            return on_call
        if qualname == "regularizers.penalty":
            def on_call(args, kwargs):
                return self._name_id(f"{qualname}.{args[0]}")
            return on_call
        if qualname in ("wasserstein.w1_exact", "wasserstein.w1_matching"):
            def on_call(args, kwargs, key=qualname + ".entries",
                        nid=self._name_id(qualname)):
                counts[key] += _rows(args[0]) * _rows(args[1])
                return nid
            return on_call
        return None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at every binding inside the package."""
        modules = {name: importlib.import_module(f"arlab.{name}") for name in TRACED}
        owners = [sys.modules["arlab"]] + [
            m for name, m in sorted(sys.modules.items())
            if name.startswith("arlab.") and m is not None]
        for mod_name, fn_names in TRACED.items():
            for fn_name in fn_names:
                original = getattr(modules[mod_name], fn_name)
                qualname = f"{mod_name}.{fn_name}"
                wrapper = self._wrap(qualname, original, self._count_hook(qualname))
                bound = []
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            setattr(owner, attr, wrapper)
                            self._patches.append((owner, attr, original))
                            bound.append(f"{owner.__name__}.{attr}")
                self.bindings[qualname] = bound
        tensor_cls = modules["tensor"].Tensor
        original_init = tensor_cls.__init__
        counts = self.counts

        def counting_init(node, *args, **kwargs):
            counts["tensor.nodes"] += 1
            original_init(node, *args, **kwargs)

        tensor_cls.__init__ = counting_init
        self._patches.append((tensor_cls, "__init__", original_init))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ------------------------------------------------------

    def aggregate(self) -> dict:
        """Per-name total time, self time and calls, plus exact counters."""
        names, parents = self.span_name, self.span_parent
        durations = [end - start for start, end in zip(self.span_start, self.span_end)]
        child_time = [0.0] * len(names)
        for parent, duration, hook in zip(parents, durations, self.span_hook):
            if parent >= 0:
                child_time[parent] += duration + hook
        out: dict = defaultdict(float)
        for nid, duration, child in zip(names, durations, child_time):
            name = self.names[nid]
            out[name + ".s"] += duration
            out[name + ".self_s"] += duration - child
            out[name + ".calls"] += 1
        # a training step is a backward pass made inside training.train
        train_id = self._name_ids.get("training.train")
        backward_id = self._name_ids.get("tensor.backward")
        steps = 0
        for nid, parent in zip(names, parents):
            if nid != backward_id:
                continue
            while parent >= 0 and names[parent] != train_id:
                parent = parents[parent]
            steps += parent >= 0
        out.update(self.counts)
        out["training.steps"] = steps
        unique = len(self._unique_pairs)
        out["transforms.unique_pairs"] = unique
        out["transforms.images_per_unique"] = (
            self.counts["transforms.images"] / unique if unique else 0.0)
        out["trace.spans"] = len(names)
        out["trace.hook_s"] = sum(self.span_hook)
        for key in [k for k in out if k.endswith(".calls")]:
            out[key] = int(out[key])
        return dict(out)

    def missing_coverage(self, workload: str, aggregated: dict) -> list:
        """Layers mapped to this workload that recorded no self time."""
        return [layer for layer in COVERAGE.get(workload, ())
                if aggregated.get(layer + ".self_s", 0.0) <= 0.0]

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"names": self.names, "bindings": self.bindings,
                       "span_fields": ["name", "parent", "start", "end", "hook_s"],
                       "spans": list(zip(self.span_name, self.span_parent,
                                         self.span_start, self.span_end,
                                         self.span_hook))}, f)
