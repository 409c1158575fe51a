"""Scenario streams, pre-training, the stage loop, and reporting.

Streams come in three flavors: ``complete`` (fresh tasks per stage, full
demos), ``semi`` (the first half of the task sequence repeated twice, with
one designated sub-goal segment removed per task per pass, complementary
across passes), and ``incomplete`` (the complete task sequence, one
designated sub-goal segment removed per task).  Optional schedules inject
demonstration-free unseen tasks and unlearning events.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import baselines, iscil, metrics, nets
from .env import (EnvSpec, GoalBank, Task, demo_arrays, evaluate_gc,
                  generate_demonstration)
from .errors import ConfigError
from .iscil import IsCilConfig, IsCilState, StageDataset
from .rngs import rng_for


@dataclass
class ScenarioSpec:
    kind: str = "complete"               # complete | semi | incomplete
    num_stages: int = 20
    tasks_per_stage: int = 1
    demos_per_task: int = 4
    subgoals_per_task: int = 4
    pretrain_objects: tuple = (0, 1, 2, 3)
    unseen_every: int = 0                # 0 disables the schedule
    unseen_count: int = 2
    unlearn_every: int = 0
    unlearn_count: int = 1

    def validate(self, env: EnvSpec):
        if self.kind not in ("complete", "semi", "incomplete"):
            raise ConfigError(f"unknown scenario kind {self.kind!r}")
        if self.kind == "semi" and self.num_stages % 2 != 0:
            raise ConfigError("semi scenarios need an even stage count")
        if self.subgoals_per_task > env.num_objects:
            raise ConfigError("more sub-goals per task than objects")
        if not set(self.pretrain_objects) <= set(range(env.num_objects)):
            raise ConfigError("pretrain_objects outside the object pool")


@dataclass
class Stream:
    stages: list                          # StageDataset per stage
    unseen: dict = field(default_factory=dict)   # stage -> [Task]
    unlearn_events: dict = field(default_factory=dict)  # stage -> [task id]
    tasks_by_id: dict = field(default_factory=dict)


def _random_task(rng, env: EnvSpec, m: int, task_id: str) -> Task:
    subgoals = tuple(int(g) for g in
                     rng.choice(env.num_objects, size=m, replace=False))
    return Task(id=task_id, subgoals=subgoals)


def build_stream(spec: ScenarioSpec, env: EnvSpec, seed) -> Stream:
    """Deterministic scenario stream for (spec, env, seed)."""
    spec.validate(env)
    rng = rng_for(seed, "stream-tasks")
    m = spec.subgoals_per_task

    if spec.kind == "semi":
        half = spec.num_stages // 2
        base_tasks = [
            [_random_task(rng, env, m, f"task-s{s}-{k}")
             for k in range(spec.tasks_per_stage)]
            for s in range(half)
        ]
        stage_tasks = base_tasks + base_tasks
    else:
        stage_tasks = [
            [_random_task(rng, env, m, f"task-s{s}-{k}")
             for k in range(spec.tasks_per_stage)]
            for s in range(spec.num_stages)
        ]

    stages = []
    tasks_by_id = {}
    for s, tasks in enumerate(stage_tasks):
        demos = []
        for k, task in enumerate(tasks):
            tasks_by_id[task.id] = task
            for j in range(spec.demos_per_task):
                corruption = _corruption_for(spec, s, k, task)
                demos.append(generate_demonstration(
                    env, task, seed=(seed, "demo", s, k, j),
                    corruption=corruption))
        stages.append(StageDataset(stage_index=s, demos=demos, tasks=tasks))

    unseen = {}
    if spec.unseen_every > 0:
        for s in range(spec.unseen_every - 1, spec.num_stages,
                       spec.unseen_every):
            unseen[s] = [
                _random_task(rng, env, m, f"unseen-s{s}-{k}")
                for k in range(spec.unseen_count)
            ]
            for t in unseen[s]:
                tasks_by_id[t.id] = t

    unlearn_events = {}
    if spec.unlearn_every > 0:
        already = set()
        for s in range(spec.unlearn_every - 1, spec.num_stages,
                       spec.unlearn_every):
            # Oldest still-learned tasks, trained no later than this stage.
            learned = [t.id for ts in stage_tasks[:s + 1] for t in ts
                       if t.id not in already]
            picks = list(dict.fromkeys(learned))[:spec.unlearn_count]
            if picks:
                unlearn_events[s] = picks
                already.update(picks)
    return Stream(stages=stages, unseen=unseen,
                  unlearn_events=unlearn_events, tasks_by_id=tasks_by_id)


def _corruption_for(spec: ScenarioSpec, stage: int, task_pos: int,
                    task: Task) -> frozenset:
    m = len(task.subgoals)
    if spec.kind == "complete":
        return frozenset()
    if spec.kind == "incomplete":
        miss = task.subgoals[(stage + task_pos) % m]
        return frozenset([miss])
    # semi: designated sub-goal per (task, pass); the second pass shifts the
    # index so the union of retained segments covers the whole task.
    half = spec.num_stages // 2
    pass_idx, base_stage = divmod(stage, half)
    miss = task.subgoals[(base_stage + task_pos + pass_idx) % m]
    return frozenset([miss])


def pretrain_tasks(env: EnvSpec, objects) -> list:
    """Every ordered arrangement of the pretraining objects as a task."""
    objects = tuple(objects)
    return [Task(id=f"pretrain-{'-'.join(map(str, perm))}", subgoals=perm)
            for perm in itertools.permutations(objects)]


def pretrain(env: EnvSpec, objects, budget_steps: int, seed,
             hidden=(128, 128), demos_per_task: int = 4,
             batch_size: int = 64, lr: float = 1e-3) -> nets.BasePolicy:
    """Behavior-clone a fresh MLP on tasks over the pretraining objects."""
    if len(objects) < 2:
        raise ConfigError("need at least 2 pretraining objects")
    demos = [generate_demonstration(env, task,
                                    seed=(seed, "pretrain", task.id, j))
             for task in pretrain_tasks(env, objects)
             for j in range(demos_per_task)]
    x, a, *_ = demo_arrays(demos, GoalBank(env))
    base = nets.init_mlp((env.state_dim, *hidden, 2), (seed, "base-init"))
    if budget_steps > 0:
        rng = rng_for((seed, "pretrain-train"), "base-train")
        nets.train(base, None, nets.batches(x, a, batch_size, rng),
                   budget_steps, lr)
    return base


# --- method factory ---

class IsCilMethod:
    """Adapts IsCilState to the common stage interface."""

    def __init__(self, base, goal_bank, config: IsCilConfig):
        self.state = IsCilState(base, goal_bank, config)

    def train_stage(self, stage: StageDataset):
        report = iscil.learn_stage(self.state, stage)
        return {"skills": [s.skill_id for s in report.skills],
                "donors": {s.skill_id: s.donor for s in report.skills},
                "losses": {s.skill_id: s.final_loss for s in report.skills}}

    def policy_for_task(self, task: Task):
        return self.state.act

    def unlearn(self, task_id):
        return iscil.unlearn_task(self.state, task_id)


METHOD_IDS = ("iscil", "seqft", "seqlora", "ewc", "l2m", "l2m-g",
              "tail-g", "tail-tau", "tail-tau-clpu", "er", "multitask")


def make_method(method_id: str, base, goal_bank, seed: int,
                params: dict = None):
    """Instantiate a method over a (deep-copied) base checkpoint."""
    import copy as _copy

    params = dict(params or {})
    base = _copy.deepcopy(base)
    cfg = baselines.TrainConfig(
        steps_per_stage=params.pop("steps_per_stage", 500),
        batch_size=params.pop("batch_size", 64),
        lr=params.pop("lr", 1e-3),
    )
    if method_id == "iscil":
        ic = IsCilConfig(seed=seed,
                         updates_per_skill=cfg.steps_per_stage,
                         batch_size=cfg.batch_size, lr=cfg.lr, **params)
        return IsCilMethod(base, goal_bank, ic)
    if method_id == "seqft":
        return baselines.SeqFT(base, goal_bank, cfg, seed=seed)
    if method_id == "seqlora":
        return baselines.SeqLoRA(base, goal_bank, cfg, seed=seed, **params)
    if method_id == "ewc":
        return baselines.OnlineEWC(base, goal_bank, cfg, seed=seed, **params)
    if method_id == "l2m":
        return baselines.L2M(base, goal_bank, cfg, mode="state", seed=seed,
                             **params)
    if method_id == "l2m-g":
        return baselines.L2M(base, goal_bank, cfg, mode="state+goal",
                             seed=seed, **params)
    if method_id == "tail-g":
        return baselines.Tail(base, goal_bank, cfg, kind="goal", seed=seed,
                              **params)
    if method_id in ("tail-tau", "tail-tau-clpu"):
        return baselines.Tail(base, goal_bank, cfg, kind="task", seed=seed,
                              **params)
    if method_id == "er":
        if "quota" not in params:
            raise ConfigError("ER requires an explicit replay quota")
        return baselines.ER(base, goal_bank, cfg, seed=seed, **params)
    if method_id == "multitask":
        return baselines.MultiTask(base, goal_bank, cfg, seed=seed)
    raise ConfigError(f"unknown method id {method_id!r}")


# --- experiment orchestration ---

@dataclass
class RunConfig:
    env: EnvSpec
    scenario: ScenarioSpec
    method_id: str
    method_params: dict = field(default_factory=dict)
    seed: int = 0
    eval_episodes: int = 10
    pretrain_budget: int = 20000
    out_dir: str = None
    config_bytes: bytes = b""


@dataclass
class ResultsRecord:
    matrix: metrics.ScoreMatrix
    stage_times: list
    provenance: str
    stage_reports: list
    method_id: str = ""
    seed: int = 0
    scenario_kind: str = ""


def provenance_hash(config_bytes: bytes) -> str:
    return hashlib.sha256(config_bytes).hexdigest()


def _eval_seed(root_seed, task_id):
    # Deliberately stage-independent so identical policies score identically
    # at every stage (makes adapter isolation measurable as BWT == 0).
    return (root_seed, "eval", task_id)


def run_experiment(config: RunConfig, base: nets.BasePolicy = None,
                   stop_after_stage: int = None) -> ResultsRecord:
    """Train/evaluate over the full stream; persists and resumes per stage.

    stop_after_stage, if set, interrupts after that stage completes (used
    to exercise resume equivalence).
    """
    env = config.env
    config.scenario.validate(env)
    goal_bank = GoalBank(env)
    stream = build_stream(config.scenario, env, (config.seed, "stream"))
    if base is None:
        base = pretrain(env, config.scenario.pretrain_objects,
                        config.pretrain_budget, (config.seed, "pretrain"))

    out = Path(config.out_dir) if config.out_dir else None
    start_stage = 0
    method = None
    matrix = metrics.ScoreMatrix()
    stage_times = []
    stage_reports = []
    trained_tasks: list = []
    unlearned: set = set()

    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        snap = _latest_snapshot(out)
        if snap is not None:
            start_stage, method, matrix, stage_times, stage_reports, \
                trained_tasks, unlearned = snap

    if method is None:
        method = make_method(config.method_id, base, goal_bank,
                             config.seed, config.method_params)

    for s in range(start_stage, len(stream.stages)):
        t0 = time.perf_counter()
        stage = stream.stages[s]
        report = {"stage": s, "train": method.train_stage(stage)}
        for task in stage.tasks:
            if task.id not in trained_tasks:
                trained_tasks.append(task.id)
            matrix.mark_trained(task.id, s)

        events = stream.unlearn_events.get(s, [])
        removed_now = []
        for task_id in events:
            if hasattr(method, "unlearn"):
                method.unlearn(task_id)
            unlearned.add(task_id)
            removed_now.append(task_id)
        if removed_now:
            report["unlearned"] = removed_now

        eval_tasks = [tid for tid in trained_tasks if tid not in unlearned]
        for stage_u, tasks in stream.unseen.items():
            if stage_u <= s:
                eval_tasks.extend(t.id for t in tasks)
        for tid in eval_tasks:
            task = stream.tasks_by_id[tid]
            gc = evaluate_gc(method.policy_for_task(task), env, task,
                             config.eval_episodes,
                             _eval_seed(config.seed, tid))
            matrix.record(tid, s, gc)
        stage_times.append(time.perf_counter() - t0)
        stage_reports.append(report)

        if out is not None:
            _persist_stage(out, s, method, matrix, stage_times,
                           stage_reports, trained_tasks, unlearned, report)
        if stop_after_stage is not None and s >= stop_after_stage:
            break

    record = ResultsRecord(
        matrix=matrix, stage_times=stage_times,
        provenance=provenance_hash(config.config_bytes),
        stage_reports=stage_reports, method_id=config.method_id,
        seed=config.seed, scenario_kind=config.scenario.kind)
    if out is not None:
        metrics.save_matrix(matrix, out / "scores.csv")
    return record


def _persist_stage(out: Path, s, method, matrix, stage_times, stage_reports,
                   trained_tasks, unlearned, report):
    with open(out / f"state_stage{s:03d}.pkl", "wb") as fh:
        pickle.dump({
            "stage": s,
            "method": method,
            "matrix": matrix,
            "stage_times": stage_times,
            "stage_reports": stage_reports,
            "trained_tasks": trained_tasks,
            "unlearned": unlearned,
        }, fh)
    with open(out / "stage_reports.jsonl", "a") as fh:
        fh.write(json.dumps(report, default=str) + "\n")
    metrics.save_matrix(matrix, out / "scores.csv")


def _latest_snapshot(out: Path):
    snaps = sorted(out.glob("state_stage*.pkl"))
    if not snaps:
        return None
    with open(snaps[-1], "rb") as fh:
        d = pickle.load(fh)
    return (d["stage"] + 1, d["method"], d["matrix"], d["stage_times"],
            d["stage_reports"], d["trained_tasks"], d["unlearned"])


# --- reporting ---

def report(results: list, path=None):
    """Aggregate FWT/BWT/AUC across seeds per method; population stddev.

    Refuses to mix scenario kinds.  Returns the table rows; optionally
    writes them as CSV (stddev convention noted in the header row).
    """
    kinds = {r.scenario_kind for r in results}
    if len(kinds) > 1:
        raise ConfigError(f"mixed scenarios in one report: {sorted(kinds)}")
    by_method: dict = {}
    for r in results:
        by_method.setdefault(r.method_id, []).append(r)
    rows = []
    for method_id in sorted(by_method):
        group = by_method[method_id]
        vals = {"fwt": [], "bwt": [], "auc": []}
        for r in group:
            vals["fwt"].append(metrics.fwt(r.matrix)[1])
            vals["bwt"].append(metrics.bwt(r.matrix)[1])
            vals["auc"].append(metrics.auc(r.matrix)[1])
        row = {"method": method_id, "seeds": len(group)}
        for name, vlist in vals.items():
            arr = np.array(vlist)
            row[f"{name}_mean"] = float(arr.mean())
            row[f"{name}_std"] = float(arr.std())  # population stddev
        adapt = [metrics.adaptation_matrix(r.matrix) for r in group]
        if all(a.trained for a in adapt):
            # "-A" variants: evaluated-but-never-trained (unseen) tasks.
            for name, fn in (("fwt_a", metrics.fwt), ("bwt_a", metrics.bwt),
                             ("auc_a", metrics.auc)):
                arr = np.array([fn(a)[1] for a in adapt])
                row[f"{name}_mean"] = float(arr.mean())
                row[f"{name}_std"] = float(arr.std())
        rows.append(row)
    if path is not None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["method", "seeds",
                        "fwt_mean", "fwt_std_population",
                        "bwt_mean", "bwt_std_population",
                        "auc_mean", "auc_std_population"])
            for row in rows:
                w.writerow([row["method"], row["seeds"],
                            row["fwt_mean"], row["fwt_std"],
                            row["bwt_mean"], row["bwt_std"],
                            row["auc_mean"], row["auc_std"]])
    return rows
