"""Comparison methods over the shared base policy and environment.

All methods implement the same stage interface: ``train_stage(stage)``,
``policy_for_task(task)`` returning an act function, and optionally
``unlearn(task_id)``.  Every method consumes the identical pre-trained
checkpoint, stream, and evaluation seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nets
from .env import GoalBank, Task, demo_arrays
from .errors import NumericFailureError
from .iscil import StageDataset
from .rngs import rng_for


@dataclass
class TrainConfig:
    steps_per_stage: int = 500
    batch_size: int = 64
    lr: float = 1e-3


class SeqFT:
    """Full-model sequential fine-tuning."""

    def __init__(self, base, goal_bank: GoalBank, cfg: TrainConfig = None,
                 seed: int = 0):
        self.base = base
        self.goal_bank = goal_bank
        self.cfg = cfg or TrainConfig()
        self.seed = seed

    def train_stage(self, stage: StageDataset):
        x, a, *_ = demo_arrays(stage.demos, self.goal_bank)
        loss = nets.train(self.base, None,
                          self._sampler(x, a, stage.stage_index),
                          self.cfg.steps_per_stage, self.cfg.lr)
        return {"final_loss": loss}

    def _sampler(self, x, a, stage_index):
        rng = rng_for((self.seed, "stage", stage_index), "base-train")
        return nets.batches(x, a, self.cfg.batch_size, rng)

    def policy_for_task(self, task: Task):
        def act(obs, goal_id):
            return nets.forward(
                self.base, None,
                np.concatenate([obs, self.goal_bank.get(goal_id)]))
        return act


class SeqLoRA:
    """One persistent high-rank adapter trained sequentially; base frozen."""

    def __init__(self, base, goal_bank: GoalBank, cfg: TrainConfig = None,
                 rank: int = 64, seed: int = 0):
        self.base = base
        self.goal_bank = goal_bank
        self.cfg = cfg or TrainConfig()
        self.seed = seed
        self.adapter = nets.init_adapter(base, rank, (seed, "seqlora"))

    def train_stage(self, stage: StageDataset):
        x, a, *_ = demo_arrays(stage.demos, self.goal_bank)
        rng = rng_for((self.seed, "stage", stage.stage_index), "adapter-train")
        loss = nets.train(self.base, self.adapter,
                          nets.batches(x, a, self.cfg.batch_size, rng),
                          self.cfg.steps_per_stage, self.cfg.lr)
        return {"final_loss": loss}

    def policy_for_task(self, task: Task):
        def act(obs, goal_id):
            return nets.forward(
                self.base, self.adapter,
                np.concatenate([obs, self.goal_bank.get(goal_id)]))
        return act


def empirical_fisher(base, x, a, max_samples=None, seed=0):
    """Diagonal empirical Fisher: mean squared per-sample gradient."""
    n = x.shape[0]
    idx = np.arange(n)
    if max_samples is not None and n > max_samples:
        idx = rng_for(seed, "fisher").choice(n, size=max_samples, replace=False)
    fisher = [np.zeros_like(p) for p in nets.base_params(base)]
    for i in idx:
        _, grads = nets.grad(base, None, x[i:i + 1], a[i:i + 1],
                             trainable="base")
        for f, g in zip(fisher, grads):
            f += g * g
    return [f / len(idx) for f in fisher]


def ema_fisher(prev_f, new_f, gamma: float):
    """F_bar_i = gamma * F_{i-1} + (1 - gamma) * F_i, elementwise."""
    return [gamma * pf + (1.0 - gamma) * nf for pf, nf in zip(prev_f, new_f)]


class OnlineEWC(SeqFT):
    """Seq-FT plus a quadratic penalty weighted by an online Fisher EMA."""

    def __init__(self, base, goal_bank: GoalBank, cfg: TrainConfig = None,
                 alpha: float = 10.0, gamma: float = 0.9,
                 fisher_samples: int = None, seed: int = 0):
        super().__init__(base, goal_bank, cfg, seed)
        self.alpha = alpha
        self.gamma = gamma
        self.fisher_samples = fisher_samples
        self.fisher_bar = [np.zeros_like(p) for p in nets.base_params(base)]
        self.prev_fisher = None
        self.anchor = [p.copy() for p in nets.base_params(base)]

    def _penalty(self, params):
        pen = 0.0
        grads = []
        for p, f, anc in zip(params, self.fisher_bar, self.anchor):
            diff = p - anc
            pen += self.alpha * float(np.sum(f * diff * diff))
            grads.append(2.0 * self.alpha * f * diff)
        return pen, grads

    def train_stage(self, stage: StageDataset):
        x, a, *_ = demo_arrays(stage.demos, self.goal_bank)
        loss = nets.train(self.base, None,
                          self._sampler(x, a, stage.stage_index),
                          self.cfg.steps_per_stage, self.cfg.lr,
                          penalty=self._penalty)
        new_f = empirical_fisher(self.base, x, a, self.fisher_samples,
                                 seed=(self.seed, "stage", stage.stage_index))
        if self.prev_fisher is None:
            self.fisher_bar = [f.copy() for f in new_f]
        else:
            self.fisher_bar = ema_fisher(self.prev_fisher, new_f, self.gamma)
        self.prev_fisher = new_f
        self.anchor = [p.copy() for p in nets.base_params(self.base)]
        return {"final_loss": loss}


class L2M:
    """Key-routed adapter pool; keys follow their matched queries.

    mode="state" queries with the normalized observation; mode="state+goal"
    appends the goal embedding before normalizing.
    """

    def __init__(self, base, goal_bank: GoalBank, cfg: TrainConfig = None,
                 pool_size: int = 100, rank: int = 4, mode: str = "state",
                 key_step: float = 0.01, seed: int = 0):
        if mode not in ("state", "state+goal"):
            raise ValueError(f"unknown L2M query mode {mode!r}")
        self.base = base
        self.goal_bank = goal_bank
        self.cfg = cfg or TrainConfig()
        self.mode = mode
        self.key_step = key_step
        self.seed = seed
        obs_dim = base.in_dim - goal_bank.dim
        qdim = obs_dim if mode == "state" else base.in_dim
        rng = rng_for(seed, "l2m-keys")
        keys = rng.standard_normal((pool_size, qdim))
        self.keys = keys / np.linalg.norm(keys, axis=1, keepdims=True)
        self.adapters = [nets.init_adapter(base, rank, (seed, "l2m", i))
                         for i in range(pool_size)]
        self.adams = [nets.adam_init(nets.adapter_params(ad), lr=self.cfg.lr)
                      for ad in self.adapters]
        self.usage = np.zeros(pool_size, dtype=int)

    def _queries(self, obs, goal_ids):
        if self.mode == "state":
            q = np.atleast_2d(obs)
        else:
            embs = self.goal_bank.embeddings[np.atleast_1d(goal_ids)]
            q = np.hstack([np.atleast_2d(obs), embs])
        return q / np.linalg.norm(q, axis=1, keepdims=True)

    def _select(self, queries):
        knorm = self.keys / np.linalg.norm(self.keys, axis=1, keepdims=True)
        return (queries @ knorm.T).argmax(axis=1)

    def train_stage(self, stage: StageDataset):
        x, a, goals, _ = demo_arrays(stage.demos, self.goal_bank)
        queries = self._queries(x[:, :-self.goal_bank.dim], goals)
        rng = rng_for(self.seed, "stage", stage.stage_index)
        n = x.shape[0]
        loss = float("nan")
        for _ in range(self.cfg.steps_per_stage):
            idx = rng.integers(0, n, size=min(self.cfg.batch_size, n))
            sel = self._select(queries[idx])
            for key_i in np.unique(sel):
                sub = idx[sel == key_i]
                adapter = self.adapters[key_i]
                loss, grads = nets.grad(self.base, adapter, x[sub], a[sub],
                                        trainable="adapter")
                if not np.isfinite(loss):
                    raise NumericFailureError("L2M adapter diverged")
                self.adams[key_i], params = nets.adam_step(
                    self.adams[key_i], nets.adapter_params(adapter), grads)
                nets.set_adapter_params(adapter, params)
                self._update_key(key_i, queries[sub])
                self.usage[key_i] += len(sub)
        return {"final_loss": loss}

    def _update_key(self, key_i, matched_queries):
        # One ascent step on mean cosine similarity to the matched queries.
        k = self.keys[key_i]
        knorm = np.linalg.norm(k)
        khat = k / knorm
        grads = (matched_queries - (matched_queries @ khat)[:, None] * khat)
        self.keys[key_i] = k + self.key_step * grads.mean(axis=0) / knorm

    def retrieve(self, obs, goal_id):
        q = self._queries(obs[None, :], np.array([goal_id]))
        return self.adapters[int(self._select(q)[0])]

    def policy_for_task(self, task: Task):
        def act(obs, goal_id):
            adapter = self.retrieve(obs, goal_id)
            return nets.forward(
                self.base, adapter,
                np.concatenate([obs, self.goal_bank.get(goal_id)]))
        return act


class Tail:
    """Identifier-keyed adapters: one per task (rank 16) or sub-goal (rank 4).

    Task adapters are isolated; sub-goal adapters are shared slots that get
    retrained (overwritten) whenever their sub-goal reappears, which is the
    intended failure mode under distribution shift.  Unknown identifiers at
    evaluation fall back to the base policy and are recorded.
    """

    def __init__(self, base, goal_bank: GoalBank, cfg: TrainConfig = None,
                 kind: str = "task", rank: int = None, seed: int = 0):
        if kind not in ("task", "goal"):
            raise ValueError(f"unknown TAIL kind {kind!r}")
        self.base = base
        self.goal_bank = goal_bank
        self.cfg = cfg or TrainConfig()
        self.kind = kind
        self.rank = rank if rank is not None else (16 if kind == "task" else 4)
        self.seed = seed
        self.registry: dict = {}
        self.fallbacks = 0  # evaluated steps that found no adapter

    def train_stage(self, stage: StageDataset):
        x, a, goals, tasks = demo_arrays(stage.demos, self.goal_bank)
        keys = tasks if self.kind == "task" else goals
        losses = {}
        for ident in sorted(set(keys), key=str):
            rows = np.asarray(keys) == ident
            adapter = self.registry.get(ident)
            if adapter is None:
                adapter = nets.init_adapter(
                    self.base, self.rank,
                    (self.seed, "adapter", stage.stage_index, ident))
                self.registry[ident] = adapter
            rng = rng_for((self.seed, "train", stage.stage_index, ident),
                          "adapter-train")
            losses[str(ident)] = nets.train(
                self.base, adapter,
                nets.batches(x[rows], a[rows], self.cfg.batch_size, rng),
                self.cfg.steps_per_stage, self.cfg.lr)
        return {"final_loss": losses}

    def act(self, obs, goal_id, task_id=None):
        ident = task_id if self.kind == "task" else goal_id
        adapter = self.registry.get(ident)
        if adapter is None:
            self.fallbacks += 1
        return nets.forward(
            self.base, adapter,
            np.concatenate([obs, self.goal_bank.get(goal_id)]))

    def policy_for_task(self, task: Task):
        def act(obs, goal_id):
            return self.act(obs, goal_id, task_id=task.id)
        return act

    def unlearn(self, task_id):
        """CLPU-style deletion: drop the task's isolated adapter outright."""
        if self.kind != "task":
            return []
        adapter = self.registry.pop(task_id, None)
        return [] if adapter is None else [(task_id, adapter)]


class ER(SeqFT):
    """Seq-FT with a per-stage replay quota mixed 1:1 into training batches.

    With an empty buffer the training path (including RNG consumption) is
    identical to Seq-FT, so quota 0 reproduces Seq-FT bit-for-bit.  With a
    non-empty buffer each batch element picks its source by a fair coin;
    the draws are counted in ``composition`` for the ratio oracle.
    """

    def __init__(self, base, goal_bank: GoalBank, cfg: TrainConfig = None,
                 quota: int = 0, seed: int = 0):
        super().__init__(base, goal_bank, cfg, seed)
        if quota < 0:
            raise ValueError("quota must be >= 0")
        self.quota = quota
        self.buffer_x = None
        self.buffer_a = None
        self.composition = np.zeros(2, dtype=np.int64)  # [current, replay]

    def _buffer_size(self):
        return 0 if self.buffer_x is None else self.buffer_x.shape[0]

    def _store(self, x, a, stage_index):
        take = min(self.quota, x.shape[0])
        if take == 0:
            return
        rng = rng_for(self.seed, "quota", stage_index)
        idx = rng.choice(x.shape[0], size=take, replace=False)
        if self.buffer_x is None:
            self.buffer_x, self.buffer_a = x[idx], a[idx]
        else:
            self.buffer_x = np.vstack([self.buffer_x, x[idx]])
            self.buffer_a = np.vstack([self.buffer_a, a[idx]])

    def train_stage(self, stage: StageDataset):
        x, a, *_ = demo_arrays(stage.demos, self.goal_bank)
        loss = nets.train(self.base, None,
                          self._sampler(x, a, stage.stage_index),
                          self.cfg.steps_per_stage, self.cfg.lr)
        self._store(x, a, stage.stage_index)
        return {"final_loss": loss}

    def _sampler(self, x, a, stage_index):
        if self._buffer_size() == 0:
            return super()._sampler(x, a, stage_index)
        rng = rng_for(self.seed, "stage", stage_index, "mixed")
        n_cur, n_rep = x.shape[0], self._buffer_size()
        batch = self.cfg.batch_size

        def sample():
            replay_mask = rng.random(batch) < 0.5
            n_r = int(replay_mask.sum())
            idx_c = rng.integers(0, n_cur, size=batch - n_r)
            idx_r = rng.integers(0, n_rep, size=n_r)
            self.composition += (batch - n_r, n_r)
            return (np.vstack([x[idx_c], self.buffer_x[idx_r]]),
                    np.vstack([a[idx_c], self.buffer_a[idx_r]]))
        return sample


class MultiTask(ER):
    """Oracle baseline: stores every transition from every stage."""

    def __init__(self, base, goal_bank: GoalBank, cfg: TrainConfig = None,
                 seed: int = 0):
        super().__init__(base, goal_bank, cfg, quota=0, seed=seed)

    def _store(self, x, a, stage_index):
        if self.buffer_x is None:
            self.buffer_x, self.buffer_a = x.copy(), a.copy()
        else:
            self.buffer_x = np.vstack([self.buffer_x, x])
            self.buffer_a = np.vstack([self.buffer_a, a])
