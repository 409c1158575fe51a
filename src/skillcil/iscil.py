"""Prototype-based skill incremental learning, evaluation, and unlearning.

Each learning stage creates one new skill per retained sub-goal: the
sub-goal's transitions are filtered out, encoded, used to train a fresh
low-rank adapter (optionally initialized from the most frequently
retrieved existing skill), and summarized into a prototype that joins the
retrieval memory.  Acting retrieves the best-matching skill per step and
runs the frozen base policy modulated by its adapter; with an empty
memory, the base policy acts alone.  Unlearning a task removes exactly the
prototype-adapter pairs tagged with it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import nets, retrieval
from .env import GoalBank, demo_arrays
from .errors import EmptyStageError
from .rngs import rng_for


@dataclass
class IsCilConfig:
    rank: int = 4
    bases_per_skill: int = 20
    updates_per_skill: int = 500
    batch_size: int = 64
    lr: float = 1e-3
    adapter_init: bool = True
    embed_dim: int = 32
    seed: int = 0


@dataclass
class StageDataset:
    stage_index: int
    demos: list
    tasks: list


@dataclass
class SkillReport:
    skill_id: str
    subgoal: int
    source_tasks: frozenset
    donor: str
    final_loss: float
    num_transitions: int


@dataclass
class StageReport:
    stage_index: int
    skills: list = field(default_factory=list)


class IsCilState:
    """Frozen base policy + encoder + prototype memory + config."""

    def __init__(self, base: nets.BasePolicy, goal_bank: GoalBank,
                 config: IsCilConfig = None):
        self.base = base
        self.goal_bank = goal_bank
        self.config = config or IsCilConfig()
        self.encoder = retrieval.make_encoder(
            base.in_dim, self.config.embed_dim, (self.config.seed, "encoder"))
        self.memory = retrieval.PrototypeMemory()

    def policy_input(self, obs: np.ndarray, goal_id: int) -> np.ndarray:
        return np.concatenate([obs, self.goal_bank.get(goal_id)])

    def act(self, obs: np.ndarray, goal_id: int) -> np.ndarray:
        x = self.policy_input(obs, goal_id)
        if len(self.memory) == 0:
            return nets.forward(self.base, None, x)
        s = retrieval.encode(self.encoder, x)
        _, adapter = self.memory.retrieve(s)
        return nets.forward(self.base, adapter, x)


def stage_subgoal_batches(state: IsCilState, stage: StageDataset):
    """Retained transitions grouped by sub-goal, in first-appearance order.

    Returns an ordered list of (goal_id, x, actions, contributing task ids).
    """
    x, actions, goals, tasks = demo_arrays(stage.demos, state.goal_bank)
    batches = []
    for g in dict.fromkeys(goals.tolist()):
        rows = goals == g
        batches.append((g, x[rows], actions[rows],
                        frozenset(t for t, r in zip(tasks, rows) if r)))
    return batches


def learn_stage(state: IsCilState, stage: StageDataset) -> StageReport:
    """One skill-incremental learning pass over a stage dataset.

    RNG streams are derived from (seed, stage index, sub-goal), never from
    memory contents, so training a stage is unaffected by unrelated skills
    learned earlier (the basis of the strong-unlearning equality when
    adapter initialization is off).
    """
    cfg = state.config
    batches = stage_subgoal_batches(state, stage)
    if not batches:
        raise EmptyStageError(
            f"stage {stage.stage_index} has no retained transitions")
    report = StageReport(stage_index=stage.stage_index)
    for g, x, actions, tasks in batches:
        embeddings = retrieval.encode(state.encoder, x)
        donor = ""
        if cfg.adapter_init and len(state.memory) > 0:
            donor = state.memory.mode_retrieved(embeddings)
            adapter = nets.clone_adapter(state.memory.get_adapter(donor))
        else:
            adapter = nets.init_adapter(
                state.base, cfg.rank,
                (cfg.seed, "adapter", stage.stage_index, g))
        rng = rng_for((cfg.seed, "train", stage.stage_index, g),
                      "adapter-train")
        loss = nets.train(
            state.base, adapter, nets.batches(x, actions, cfg.batch_size, rng),
            cfg.updates_per_skill, cfg.lr)
        skill_id = f"stage{stage.stage_index}:g{g}"
        proto = retrieval.build_prototype(
            embeddings, cfg.bases_per_skill, skill_id,
            seed=(cfg.seed, "proto", stage.stage_index, g),
            source_tasks=tasks, source_subgoal=g,
            source_stage=stage.stage_index)
        state.memory.add(proto, adapter)
        report.skills.append(SkillReport(
            skill_id=skill_id, subgoal=g, source_tasks=tasks, donor=donor,
            final_loss=loss, num_transitions=x.shape[0]))
    return report


def unlearn_task(state: IsCilState, task_id: str):
    """Remove every skill tagged with the task; returns the removed pairs."""
    return state.memory.remove(lambda p: task_id in p.source_tasks)


def snapshot(state: IsCilState) -> dict:
    """Deep-copyable view of the mutable parts (memory only; base frozen)."""
    return {"memory": copy.deepcopy(state.memory)}


def restore(state: IsCilState, snap: dict):
    state.memory = copy.deepcopy(snap["memory"])
