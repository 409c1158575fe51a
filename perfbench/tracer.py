"""Per-layer tracing installed from outside the ``skillcil`` package.

The tracer replaces public functions and methods of the package with
wrappers that record a span per call.  Spans are aggregated as they close,
keyed by (parent span name, span name), so memory stays bounded however many
per-step calls a run makes.  A span's self time is its duration minus the
time covered by its child spans.

The untraced run never installs it and so pays nothing for it.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from pathlib import Path

BASELINE_IDS = ("seqft", "seqlora", "ewc", "l2m", "l2m-g", "tail-g",
                "tail-tau", "tail-tau-clpu", "er", "multitask")

# Every span the tracer records, in report order.
SPAN_NAMES = (
    "env.step", "env.evaluate_gc", "env.generate_demonstration",
    "retrieval.encode", "retrieval.retrieve", "retrieval.kmeans",
    "retrieval.mode_retrieved",
    "nets.forward.single", "nets.forward.batch", "nets.grad",
    "nets.adam_step", "nets.train_base", "nets.train_adapter",
    "nets.save_policy", "nets.load_policy",
    "iscil.act", "iscil.learn_stage", "iscil.unlearn_task",
    *(f"baselines.{m}.train_stage" for m in BASELINE_IDS),
    "baselines.l2m.retrieve", "baselines.empirical_fisher",
    "baselines.tail.act",
    "metrics.save_matrix",
    "harness.build_stream", "harness.pretrain", "harness.run_experiment",
    "harness.persist_stage", "harness.resume_read",
    "cli.pretrain", "cli.run", "cli.unlearn", "cli.report",
)

# Counters taken at the wrappers: (name, unit).
COUNTERS = (("retrieval.kmeans.iters", "count"),
            ("nets.grad.rows", "count"),
            ("nets.grad.gflop", "Gflop"),
            ("iscil.unlearn_task.skills_removed", "count"))

# Memory-size buckets for retrieval cost: (name, largest size in bucket).
RETRIEVE_BUCKETS = (("mem_le4", 4), ("mem_le8", 8), ("mem_le16", 16),
                    ("mem_le32", 32), ("mem_gt32", None))


def dir_bytes(path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def _fallback_count(tail) -> int:
    # Read off the method's own record, whether a list or a counter.
    fb = getattr(tail, "fallbacks", 0)
    return len(fb) if isinstance(fb, list) else int(fb)


class Tracer:
    """Span stack plus aggregates; ``install`` wraps the package's layers."""

    def __init__(self):
        self.stack = []            # [name, start, child time]
        self.edges = {}            # (parent, name) -> [calls, total s, self s]
        self.counters = {}         # name -> number
        self.retrieve_s = {}       # memory-size bucket -> [calls, total s]
        self.l2m_keys_used = {}    # id(L2M instance) -> last used-key ratio
        self.method_id = None      # the method the workload is running
        self.active = True         # False while the benchmark checks outputs
        self._restore = []

    # --- spans ---

    def _open(self, name):
        self.stack.append([name, time.perf_counter(), 0.0])

    def _close(self):
        name, start, child = self.stack.pop()
        dur = time.perf_counter() - start
        parent = self.stack[-1][0] if self.stack else ""
        if self.stack:
            self.stack[-1][2] += dur
        agg = self.edges.setdefault((parent, name), [0, 0.0, 0.0])
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        return dur

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def by_name(self) -> dict:
        """name -> [calls, total s, self s], summed over parents."""
        out = {}
        for (_, name), vals in self.edges.items():
            agg = out.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(vals):
                agg[i] += v
        return out

    # --- patching ---

    def _wrap(self, fn, name, hook=None):
        """Wrapper recording a span.

        ``name`` may be a callable of the call's arguments.  ``hook``, if
        given, is called with the arguments before the call and returns a
        function of (duration, result) called after it returns.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            finish = hook(*args, **kwargs) if hook is not None else None
            tracer._open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._close()
            if finish is not None:
                finish(dur, result)
            return result
        return wrapper

    def patch_function(self, module, attr, name, hook=None):
        """Wrap module.attr everywhere the package bound that function.

        A name the package no longer has is skipped, so its metrics read 0.
        """
        orig = getattr(module, attr, None)
        if orig is None:
            return
        wrapper = self._wrap(orig, name, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "skillcil" and not mod_name.startswith("skillcil."):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, orig))

    def patch_method(self, cls, attr, name, hook=None):
        orig = cls.__dict__.get(attr)
        if orig is None:
            return
        setattr(cls, attr, self._wrap(orig, name, hook))
        self._restore.append((cls, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def install(self):
        from skillcil import (baselines, cli, env, harness, iscil, metrics,
                              nets, retrieval)

        pf, pm = self.patch_function, self.patch_method

        pf(env, "step", "env.step")
        pf(env, "evaluate_gc", "env.evaluate_gc")
        pf(env, "generate_demonstration", "env.generate_demonstration")

        pf(retrieval, "encode", "retrieval.encode")
        pf(retrieval, "kmeans", "retrieval.kmeans", hook=self._kmeans_hook)
        pm(retrieval.PrototypeMemory, "retrieve", "retrieval.retrieve",
           hook=self._retrieve_hook)
        pm(retrieval.PrototypeMemory, "mode_retrieved",
           "retrieval.mode_retrieved")

        pf(nets, "forward", lambda base, adapter, x, *a, **k: (
            "nets.forward.single" if x.ndim == 1 else "nets.forward.batch"))
        pf(nets, "grad", "nets.grad", hook=self._grad_hook)
        pf(nets, "adam_step", "nets.adam_step")
        pf(nets, "train_base", "nets.train_base")
        pf(nets, "train_adapter", "nets.train_adapter")
        pf(nets, "save_policy", "nets.save_policy")
        pf(nets, "load_policy", "nets.load_policy")

        pm(iscil.IsCilState, "act", "iscil.act")
        pf(iscil, "learn_stage", "iscil.learn_stage")
        pf(iscil, "unlearn_task", "iscil.unlearn_task",
           hook=lambda *a, **k: lambda d, removed: self.count(
               "iscil.unlearn_task.skills_removed", len(removed)))

        # tail-tau and tail-tau-clpu build the same object, so the span is
        # named after the method id the workload is running.
        def train_name(*a, **k):
            return f"baselines.{self.method_id}.train_stage"
        for cls in (baselines.SeqFT, baselines.SeqLoRA, baselines.OnlineEWC,
                    baselines.ER, baselines.Tail):
            pm(cls, "train_stage", train_name)
        pm(baselines.L2M, "train_stage", train_name, hook=self._l2m_hook)
        pm(baselines.L2M, "retrieve", "baselines.l2m.retrieve")
        pf(baselines, "empirical_fisher", "baselines.empirical_fisher")
        pm(baselines.Tail, "act", "baselines.tail.act", hook=self._tail_hook)

        pf(metrics, "save_matrix", "metrics.save_matrix")

        pf(harness, "build_stream", "harness.build_stream")
        pf(harness, "pretrain", "harness.pretrain")
        pf(harness, "run_experiment", "harness.run_experiment")
        pf(harness, "_persist_stage", "harness.persist_stage",
           hook=self._persist_hook)
        pf(harness, "_latest_snapshot", "harness.resume_read")

        pf(cli, "cmd_pretrain", "cli.pretrain")
        pf(cli, "cmd_run", "cli.run")
        pf(cli, "cmd_unlearn", "cli.unlearn")
        pf(cli, "cmd_report", "cli.report")

    # --- counters taken at the wrappers ---

    def _kmeans_hook(self, *args, **kwargs):
        return lambda dur, res: self.count("retrieval.kmeans.iters",
                                           len(res.inertia_history))

    def _retrieve_hook(self, memory, s):
        size = len(memory)
        bucket = next(b for b, top in RETRIEVE_BUCKETS
                      if top is None or size <= top)

        def finish(dur, result):
            agg = self.retrieve_s.setdefault(bucket, [0, 0.0])
            agg[0] += 1
            agg[1] += dur
        return finish

    def _grad_hook(self, base, adapter, x, actions, **kwargs):
        rows = 1 if x.ndim == 1 else x.shape[0]
        dense = sum(lin.w.size for lin in base.layers)

        def finish(dur, result):
            self.count("nets.grad.rows", rows)
            # Forward plus the two backward products at 2 flops per
            # multiply-add; the low-rank adapter terms are left out.
            self.count("nets.grad.gflop", 6.0 * rows * dense / 1e9)
        return finish

    def _l2m_hook(self, l2m, stage):
        def finish(dur, result):
            self.l2m_keys_used[id(l2m)] = float((l2m.usage > 0).mean())
        return finish

    def _tail_hook(self, tail, *args, **kwargs):
        before = _fallback_count(tail)

        def finish(dur, result):
            self.count("baselines.tail.acts")
            self.count("baselines.tail.fallbacks",
                       _fallback_count(tail) - before)
        return finish

    def _persist_hook(self, out, *args, **kwargs):
        before = dir_bytes(out)
        return lambda dur, res: self.count("harness.persist_stage.bytes",
                                           dir_bytes(out) - before)


@contextlib.contextmanager
def paused(tracer):
    """Stop recording for the block; a no-op without a tracer."""
    if tracer is None:
        yield
        return
    tracer.active = False
    try:
        yield
    finally:
        tracer.active = True


def probe_retrieve(sizes=(8, 32, 128), bases=20, dim=32, calls=400,
                   seed=0) -> dict:
    """Median microseconds per ``PrototypeMemory.retrieve`` call by size.

    Synthetic unit-norm prototypes with the default basis count and
    embedding width, so the growth of retrieval cost with memory size is
    explicit rather than bounded by the sizes a workload reaches.
    """
    import numpy as np

    from skillcil import retrieval

    rng = np.random.default_rng(seed)
    out = {}
    for n in sizes:
        memory = retrieval.PrototypeMemory()
        for i in range(n):
            b = rng.standard_normal((bases, dim))
            b /= np.linalg.norm(b, axis=1, keepdims=True)
            memory.add(retrieval.SkillPrototype(skill_id=f"p{i}", bases=b),
                       adapter=None)
        queries = rng.standard_normal((calls, dim))
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        times = []
        for q in queries:
            t0 = time.perf_counter()
            memory.retrieve(q)
            times.append(time.perf_counter() - t0)
        out[n] = float(np.median(times)) * 1e6
    return out
