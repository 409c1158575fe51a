"""One benchmark run of one workload, in the process ``run.py`` starts.

Untraced (``--trace 0``): times the workload's set-up several times, then
repeats rounds of its operations until ``--seconds`` have passed, checks
every output, and prints the end-to-end metrics.

Traced (``--trace 1``): runs set-up plus one round untraced, then the same
again with the tracer installed, and prints the per-layer metrics and the
tracing overhead (traced minus untraced wall time).

Every run prints a ``provenance`` line (machine, versions, commit, ``src/``
line count, output fingerprints) before the result line.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
SRC = ROOT / "src"

import skillcil  # noqa: E402  (src/ is on PYTHONPATH, set by run.py)
from skillcil import cli, harness, metrics, nets  # noqa: E402
from skillcil.env import EnvSpec, GoalBank, generate_demonstration  # noqa: E402

import provenance  # noqa: E402
import tracer as tracing  # noqa: E402

PRETRAIN_OBJECTS = (0, 1, 2, 3)
# Streams run on one base pretrained with a fixed seed, as the package's test
# fixture does: across pretraining seeds the base's held-out loss varies
# fivefold and its evaluation cost by about 8 %, which would swamp the spread
# between runs.  --seed varies the streams.
BASE_SEED = 0
# Independent ISCIL streams per round: the run time of one stream varies by
# about 11 % with its tasks, and a round of several averages that out.
STREAMS_PER_ROUND = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import skillcil.cli, skillcil.harness; "
                "print(time.perf_counter() - t)")


@dataclass
class Size:
    """Budgets of the workloads; ``SMOKE`` shrinks them for the self-test."""
    pretrain_steps: int = 20000
    stages: int = 8
    iscil_updates: int = 500
    iscil_episodes: int = 10
    life_steps: int = 100
    life_episodes: int = 3
    life_stop_after: int = 3
    heldout_demos: int = 4


SMOKE = Size(pretrain_steps=200, stages=4, iscil_updates=20,
             iscil_episodes=1, life_steps=10, life_episodes=1,
             life_stop_after=1, heldout_demos=1)


@dataclass
class Op:
    """Outcome of one timed operation."""
    name: str
    wall_s: float = 0.0
    ok: bool = False
    error: str = ""
    stages: int = 0
    stage_times: list = field(default_factory=list)
    disk_bytes: int = 0
    fingerprint: str = ""
    auc: float = None


class CheckFailed(Exception):
    """An output check failed: the operation counts as failed and wrong."""


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def expected_cells(stream) -> set:
    """(task, stage) cells the stage loop must score, and no others.

    Every learned task is scored from its training stage on until the stage
    of its unlearning event; unseen tasks from their injection stage on.
    """
    cells, trained, unlearned = set(), [], set()
    for s, stage in enumerate(stream.stages):
        trained += [t.id for t in stage.tasks if t.id not in trained]
        unlearned.update(stream.unlearn_events.get(s, []))
        live = [t for t in trained if t not in unlearned]
        for s_u, tasks in stream.unseen.items():
            if s_u <= s:
                live += [t.id for t in tasks]
        cells.update((t, s) for t in live)
    return cells


def check_matrix(matrix, stream):
    bad = [v for v in matrix.scores.values() if not 0.0 <= v <= 1.0]
    if bad:
        raise CheckFailed(f"scores outside [0, 1]: {bad[:3]}")
    want, got = expected_cells(stream), set(matrix.scores)
    if got != want:
        raise CheckFailed(f"score cells differ: missing {sorted(want - got)[:3]}"
                          f", unexpected {sorted(got - want)[:3]}")


def keyed_ops(ops, args) -> list:
    """(workload/operation/seed key, op) for every successful operation."""
    suffix = "/smoke" if args.smoke else ""
    return [(f"{args.workload}/{op.name}/{args.seed}{suffix}", op)
            for op in ops if op.ok]


def check_fingerprints(ops, args, ledger_path):
    """Fail every operation whose output differs from an earlier run's.

    The ledger maps (workload, operation, seed) to the sha256 of the output
    in this source tree, so repeats within a run and later runs with the same
    seed are both checked for identical output.
    """
    ledger = (json.loads(ledger_path.read_text())
              if ledger_path.is_file() else {})
    for key, op in keyed_ops(ops, args):
        if ledger.setdefault(key, op.fingerprint) != op.fingerprint:
            op.ok = False
            op.error = (f"check: output {op.fingerprint[:12]} differs from "
                        f"{ledger[key][:12]} of an earlier run with this seed")
            print(f"op {op.name} failed: {op.error}", flush=True)
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, ledger_path)


def heldout_arrays(env, seed, demos_per_task):
    """Demonstrations of the pretraining tasks on seeds pretraining never
    draws, as (policy inputs, actions)."""
    goal_bank = GoalBank(env)
    xs, acts = [], []
    for task in harness.pretrain_tasks(env, PRETRAIN_OBJECTS):
        for j in range(demos_per_task):
            demo = generate_demonstration(env, task,
                                          seed=(seed, "heldout", task.id, j))
            for tr in demo.transitions:
                xs.append(np.concatenate([tr.obs, goal_bank.get(tr.goal_id)]))
                acts.append(tr.action)
    return np.array(xs), np.array(acts)


# --- workloads ---

class Workload:
    """Timed set-up, untimed preparation, and rounds of operations.

    ``run_op`` holds only the timed work of an operation; ``finish`` checks
    its outputs afterwards, untimed and untraced.
    """
    min_ops = 1
    setup_repeats = 2   # a set-up that pretrains the base takes about 5 s

    def __init__(self, seed, size: Size, work: Path):
        self.seed, self.size, self.work = seed, size, work
        self.env = EnvSpec()
        self.base = None

    def setup(self):
        pass

    def prepare(self):
        self.heldout_x, self.heldout_a = heldout_arrays(
            self.env, self.seed, self.size.heldout_demos)

    def round(self):
        """Names of the operations making up one round."""
        return [self.name]

    def bc_loss(self) -> float:
        """Held-out imitation loss of the base policy the workload built."""
        if self.base is None:
            return 0.0
        return nets.imitation_loss(self.base, None, self.heldout_x,
                                   self.heldout_a)


class Pretrain(Workload):
    """Behaviour cloning of the base policy: training only."""
    name = "pretrain"
    min_ops = 2   # repeated on the same input, to check determinism
    setup_repeats = 9   # the set-up is an import of about 0.07 s

    def prepare(self):
        super().prepare()
        untrained = harness.pretrain(self.env, PRETRAIN_OBJECTS, 0, self.seed)
        self.untrained_loss = nets.imitation_loss(
            untrained, None, self.heldout_x, self.heldout_a)

    def run_op(self, op):
        t0 = time.perf_counter()
        base = harness.pretrain(self.env, PRETRAIN_OBJECTS,
                                self.size.pretrain_steps, self.seed)
        op.wall_s = time.perf_counter() - t0
        op.stages, op.stage_times = 1, [op.wall_s]
        return base

    def finish(self, op, base):
        self.base = base
        loss = self.bc_loss()
        if not loss < 0.1 * self.untrained_loss:
            raise CheckFailed(f"held-out loss {loss:.3e} not below a tenth "
                              f"of the untrained {self.untrained_loss:.3e}")
        path = self.work / "base_policy.json"
        nets.save_policy(base, path)
        op.fingerprint = sha256_file(path)


class IscilIncomplete(Workload):
    """The paper's headline run: ISCIL on the 8-stage incomplete stream."""
    name = "iscil-incomplete"

    def setup(self):
        self.base = harness.pretrain(self.env, PRETRAIN_OBJECTS,
                                     self.size.pretrain_steps, BASE_SEED)

    def prepare(self):
        super().prepare()
        self.configs, self.streams = {}, {}
        for stream_seed in self.stream_seeds():
            cfg = harness.RunConfig(
                env=self.env,
                scenario=harness.ScenarioSpec(kind="incomplete",
                                              num_stages=self.size.stages),
                method_id="iscil",
                method_params={"rank": 4, "bases_per_skill": 20,
                               "steps_per_stage": self.size.iscil_updates},
                seed=stream_seed, eval_episodes=self.size.iscil_episodes)
            self.configs[f"iscil@{stream_seed}"] = cfg
            self.streams[f"iscil@{stream_seed}"] = harness.build_stream(
                cfg.scenario, self.env, (stream_seed, "stream"))

    def stream_seeds(self):
        return [self.seed * STREAMS_PER_ROUND + k
                for k in range(STREAMS_PER_ROUND)]

    def round(self):
        return [f"iscil@{s}" for s in self.stream_seeds()]

    def run_op(self, op):
        t0 = time.perf_counter()
        record = harness.run_experiment(self.configs[op.name], base=self.base)
        op.wall_s = time.perf_counter() - t0
        op.stage_times = list(record.stage_times)
        op.stages = len(op.stage_times)
        return record

    def finish(self, op, record):
        check_matrix(record.matrix, self.streams[op.name])
        op.auc = metrics.auc(record.matrix)[1]
        path = self.work / "scores.csv"
        metrics.save_matrix(record.matrix, path)
        op.fingerprint = sha256_file(path)


class Lifecycle(Workload):
    """Every method id through persist, interrupt, CLI resume, unlearn and
    report, on a multi-task stream with unlearning and unseen tasks."""
    name = "lifecycle"

    def yaml_for(self, method_id) -> str:
        params = {"steps_per_stage": self.size.life_steps, "batch_size": 32}
        if method_id == "er":
            params["quota"] = 200
        doc = {
            "version": 1,
            "scenario": {"kind": "incomplete", "num_stages": self.size.stages,
                         "tasks_per_stage": 2, "unlearn_every": 2,
                         "unseen_every": 4},
            "method": {"id": method_id, "params": params},
            "seed": self.seed,
            "eval_episodes": self.size.life_episodes,
            "pretrain": {"budget": self.size.pretrain_steps},
        }
        return json.dumps(doc, indent=1)  # JSON is valid YAML

    @staticmethod
    def cli_ok(argv) -> str:
        """Run a CLI command in-process; its stdout, or CheckFailed."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise CheckFailed(f"skillcil {argv[0]} exited {code}: "
                              f"{err.getvalue().strip()}")
        return out.getvalue()

    def setup(self):
        path = self.work / "pretrain.yaml"
        path.write_text(self.yaml_for("iscil"))
        self.cli_ok(["pretrain", "--config", str(path), "--seed",
                     str(BASE_SEED), "--out", str(self.work)])
        self.checkpoint = self.work / "base_policy.json"

    def prepare(self):
        super().prepare()
        self.base = nets.load_policy(self.checkpoint)
        goal_bank = GoalBank(self.env)
        self.configs, self.unlearns = {}, {}
        for method_id in harness.METHOD_IDS:
            path = self.work / f"{method_id}.yaml"
            path.write_text(self.yaml_for(method_id))
            self.configs[method_id] = str(path)
            cfg = cli.load_config(path)
            method = harness.make_method(method_id, self.base, goal_bank,
                                         cfg.seed, dict(cfg.method_params))
            self.unlearns[method_id] = hasattr(method, "unlearn")
        self.stream = harness.build_stream(cfg.scenario, self.env,
                                           (self.seed, "stream"))
        # Trained in the last stage, so no scheduled event has removed it.
        self.unlearn_task = self.stream.stages[-1].tasks[0].id

    def round(self):
        return list(harness.METHOD_IDS)

    def run_op(self, op):
        out = self.work / "runs" / op.name
        shutil.rmtree(out, ignore_errors=True)
        cfg_path = self.configs[op.name]
        t0 = time.perf_counter()
        cfg = cli.load_config(cfg_path, out_override=str(out))
        record = harness.run_experiment(
            cfg, base=self.base, stop_after_stage=self.size.life_stop_after)
        self.cli_ok(["run", "--config", cfg_path, "--out", str(out),
                     "--checkpoint", str(self.checkpoint)])
        if self.unlearns[op.name]:
            self.cli_ok(["unlearn", "--out", str(out),
                         "--task", self.unlearn_task])
        self.cli_ok(["report", str(out), "--out", str(out / "report.csv")])
        op.wall_s = time.perf_counter() - t0
        op.stages = self.size.stages
        return cfg, record

    def finish(self, op, result):
        cfg, record = result
        out = self.work / "runs" / op.name
        try:
            op.disk_bytes = tracing.dir_bytes(out)
            op.fingerprint = sha256_file(out / "scores.csv")
            matrix = metrics.load_matrix(out / "scores.csv")
            check_matrix(matrix, self.stream)
            if any(matrix.scores[c] != v
                   for c, v in record.matrix.scores.items()):
                raise CheckFailed("resume changed scores of earlier stages")
            op.auc = metrics.auc(matrix)[1]
            with open(out / "report.csv", newline="") as fh:
                row = next(csv.DictReader(fh))
            if float(row["auc_mean"]) != op.auc:
                raise CheckFailed(f"report AUC {row['auc_mean']} != {op.auc}")
            # Reopening the finished run resumes past its last stage and
            # returns the stage times of all stages, both processes' share.
            op.stage_times = list(harness.run_experiment(
                cfg, base=self.base).stage_times)
            if len(op.stage_times) != self.size.stages:
                raise CheckFailed(f"{len(op.stage_times)} stage times for "
                                  f"{self.size.stages} stages")
        finally:
            shutil.rmtree(out, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Pretrain, IscilIncomplete, Lifecycle)}


# --- running ---

def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=os.environ,
                         capture_output=True, text=True, check=True,
                         timeout=60)
    return float(out.stdout.strip())


def run_round(workload, ops, tracer=None):
    for name in workload.round():
        op = Op(name)
        if tracer is not None:
            tracer.method_id = name
        try:
            result = workload.run_op(op)
            with tracing.paused(tracer):
                workload.finish(op, result)
            op.ok = True
        except CheckFailed as exc:
            op.error = f"check: {exc}"
        except Exception as exc:  # a crash counts as a failed operation
            op.error = f"{type(exc).__name__}: {exc}"
        ops.append(op)
        if op.error:
            print(f"op {name} failed: {op.error}", flush=True)


def setup_and_round(workload, ops, tracer=None) -> float:
    """Set-up plus one round, as in the traced comparison; wall seconds."""
    t0 = time.perf_counter()
    workload.setup()
    elapsed = time.perf_counter() - t0
    with tracing.paused(tracer):
        workload.prepare()
    t0 = time.perf_counter()
    run_round(workload, ops, tracer)
    return elapsed + time.perf_counter() - t0


def mean_auc(ops) -> float:
    aucs = [op.auc for op in ops if op.ok and op.auc is not None]
    return sum(aucs) / len(aucs) if aucs else 0.0


def percentile(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(ops, setup_times, failed) -> dict:
    good = [op for op in ops if op.ok]
    stage_times = [t for op in good for t in op.stage_times]
    stages = sum(op.stages for op in good)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        # Geometric mean: a round's operations differ in work (streams,
        # methods), so their median would pick out a single one of them.
        "run_s": (statistics.geometric_mean([op.wall_s for op in good])
                  if good else 0.0, "s"),
        "stage_s_p50": (percentile(stage_times, 50), "s"),
        "stage_s_p90": (percentile(stage_times, 90), "s"),
        "s_per_stage": (sum(op.wall_s for op in good) / stages
                        if stages else 0.0, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_frac": ((len(ops) - failed) / len(ops), "ratio"),
    }


def per_layer(tracer, ops, workload, untraced_s, traced_s) -> dict:
    by_name = tracer.by_name()
    vals = {}
    for name in tracing.SPAN_NAMES:
        calls, _, self_s = by_name.get(name, (0, 0.0, 0.0))
        vals[f"{name}.calls"] = (calls, "count")
        vals[f"{name}.self_s"] = (self_s, "s")
    steps = tracer.edges.get(("env.evaluate_gc", "env.step"), (0,))[0]
    vals["env.evaluate_gc.steps"] = (steps, "count")
    for bucket, _ in tracing.RETRIEVE_BUCKETS:
        calls, total = tracer.retrieve_s.get(bucket, (0, 0.0))
        vals[f"retrieval.retrieve.us.{bucket}"] = (
            total / calls * 1e6 if calls else 0.0, "us")
    for n, us in tracing.probe_retrieve().items():
        vals[f"retrieval.probe.us_p{n}"] = (us, "us")
    for name, unit in tracing.COUNTERS:
        vals[name] = (tracer.counters.get(name, 0), unit)
    acts = tracer.counters.get("baselines.tail.acts", 0)
    vals["baselines.tail.fallback_ratio"] = (
        tracer.counters.get("baselines.tail.fallbacks", 0) / acts
        if acts else 0.0, "ratio")
    used = list(tracer.l2m_keys_used.values())
    vals["baselines.l2m.keys_used_ratio"] = (
        sum(used) / len(used) if used else 0.0, "ratio")
    vals["harness.persist_stage.mb"] = (
        tracer.counters.get("harness.persist_stage.bytes", 0) / 1e6, "MB")
    good = [op for op in ops if op.ok]
    stages = sum(op.stages for op in good)
    vals["harness.disk_mb_per_stage"] = (
        sum(op.disk_bytes for op in good) / 1e6 / stages if stages else 0.0,
        "MB")
    vals["nets.bc_loss"] = (workload.bc_loss(), "mse")
    vals["metrics.auc"] = (mean_auc(ops), "score")
    vals["trace.untraced_s"] = (untraced_s, "s")
    vals["trace.traced_s"] = (traced_s, "s")
    vals["trace.overhead_s"] = (traced_s - untraced_s, "s")
    vals["trace.overhead_frac"] = (
        (traced_s - untraced_s) / untraced_s if untraced_s else 0.0, "ratio")
    return vals


def run(args, work) -> int:
    workload = WORKLOADS[args.workload](args.seed,
                                        SMOKE if args.smoke else Size(), work)
    ops = []
    if args.trace:
        untraced_s = setup_and_round(workload, ops)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_s = setup_and_round(workload, ops, tracer)
        finally:
            tracer.uninstall()
    else:
        setup_times = []
        for _ in range(workload.setup_repeats):
            imp = import_seconds()
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(imp + time.perf_counter() - t0)
        workload.prepare()
        t0 = time.perf_counter()
        while (time.perf_counter() - t0 < args.seconds
               or len(ops) < workload.min_ops):
            run_round(workload, ops)

    check_fingerprints(ops, args, work.parent / "fingerprints.json")
    # A crash counts as failed; a wrong output also makes the run incorrect.
    correct = not any(op.error.startswith("check:") for op in ops)
    failed = sum(1 for op in ops if not op.ok)

    if args.trace:
        values = per_layer(tracer, ops, workload, untraced_s, traced_s)
    else:
        values = end_to_end(ops, setup_times, failed)

    record = provenance.record(ROOT, work)
    record.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        ops=[{"name": op.name, "ok": op.ok, "wall_s": op.wall_s,
              "stage_times": op.stage_times, "error": op.error}
             for op in ops],
        fingerprints={key: op.fingerprint
                      for key, op in keyed_ops(ops, args)},
        auc=mean_auc(ops), bc_loss=workload.bc_loss())
    print("provenance " + json.dumps(record, sort_keys=True), flush=True)

    out = {}
    for name, (value, unit) in values.items():
        value = float(value)
        if not math.isfinite(value):
            correct, value = False, 0.0
        out[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": failed, "metrics": out}), flush=True)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="minimal budgets, for the self-test")
    args = p.parse_args(argv)

    if Path(skillcil.__file__).resolve().parent != (SRC / "skillcil").resolve():
        print(f"skillcil imported from {skillcil.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
