"""Compositional multi-stage point-mass environment.

A 2-D agent must visit an ordered sequence of objects ("sub-goals") on the
unit square.  Tasks are ordered tuples of distinct object ids; a scripted
proportional-controller expert generates demonstrations, optionally with
whole sub-goal segments removed (corrupted streams).  Success is measured
by the goal-conditioned score: the fraction of a task's sub-goals reached
in order, averaged over episodes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DemoGenerationError,
    EpisodeFinishedError,
    InvalidTaskError,
)
from .rngs import rng_for


def default_object_positions(n: int, radius: float = 0.4,
                             center=(0.5, 0.5)) -> tuple:
    """n objects equally spaced on a circle inside the unit square."""
    pts = []
    for i in range(n):
        ang = 2.0 * math.pi * i / n
        pts.append((center[0] + radius * math.cos(ang),
                    center[1] + radius * math.sin(ang)))
    return tuple(pts)


@dataclass(frozen=True)
class EnvSpec:
    num_objects: int = 7
    object_positions: tuple = None
    reach_radius: float = 0.05
    max_speed: float = 0.05
    horizon: int = 400
    dt: float = 1.0
    obs_noise_sigma: float = 0.0
    goal_embed_dim: int = 8
    embed_seed: int = 0

    def __post_init__(self):
        if self.object_positions is None:
            object.__setattr__(self, "object_positions",
                               default_object_positions(self.num_objects))
        if len(self.object_positions) != self.num_objects:
            raise InvalidTaskError("object_positions length mismatch")
        if self.horizon <= 0:
            raise InvalidTaskError("horizon must be positive")
        pos = np.asarray(self.object_positions, dtype=float)
        dists = [np.linalg.norm(pos[i] - pos[j])
                 for i in range(len(pos)) for j in range(i + 1, len(pos))]
        if dists and self.reach_radius >= min(dists) / 2:
            raise InvalidTaskError("reach_radius too large for object layout")

    @property
    def obs_dim(self) -> int:
        return 4 + self.num_objects

    @property
    def state_dim(self) -> int:
        """Policy input dimension: observation plus goal embedding."""
        return self.obs_dim + self.goal_embed_dim


class GoalBank:
    """Fixed seeded unit embeddings, one per object id.

    Stands in for language goal embeddings; deterministic in
    (id, embed_seed) and shared across the whole experiment.
    """

    def __init__(self, spec: EnvSpec):
        self.dim = spec.goal_embed_dim
        mat = np.empty((spec.num_objects, self.dim))
        for gid in range(spec.num_objects):
            v = rng_for(spec.embed_seed, "goal-embed", gid).standard_normal(self.dim)
            mat[gid] = v / np.linalg.norm(v)
        self.embeddings = mat

    def get(self, goal_id: int) -> np.ndarray:
        return self.embeddings[goal_id]


@dataclass(frozen=True)
class Task:
    id: str
    subgoals: tuple

    def __post_init__(self):
        if len(set(self.subgoals)) != len(self.subgoals):
            raise InvalidTaskError(f"task {self.id}: duplicate sub-goals")

    def validate(self, spec: EnvSpec):
        for g in self.subgoals:
            if not 0 <= g < spec.num_objects:
                raise InvalidTaskError(
                    f"task {self.id}: sub-goal {g} outside object pool")


@dataclass
class Transition:
    obs: np.ndarray
    goal_id: int
    action: np.ndarray


@dataclass
class Demonstration:
    task_id: str
    transitions: list
    subgoal_segments: dict  # goal id -> (start, end) over retained transitions
    corrupted_subgoals: frozenset = frozenset()


@dataclass
class EnvState:
    spec: EnvSpec
    task: Task
    pos: np.ndarray
    vel: np.ndarray
    flags: np.ndarray
    t: int = 0
    goal_index: int = 0
    done: bool = False
    noise_rng: np.random.Generator = field(default=None, repr=False)

    def observation(self) -> np.ndarray:
        obs = np.concatenate([self.pos, self.vel, self.flags])
        if self.spec.obs_noise_sigma > 0:
            obs = obs + self.noise_rng.normal(
                0.0, self.spec.obs_noise_sigma, obs.shape)
        return obs

    @property
    def current_goal(self):
        """First unachieved sub-goal id, or None once the task is solved."""
        if self.goal_index >= len(self.task.subgoals):
            return None
        return self.task.subgoals[self.goal_index]


def reset(spec: EnvSpec, task: Task, seed) -> EnvState:
    task.validate(spec)
    rng = rng_for(seed, "reset")
    return EnvState(
        spec=spec,
        task=task,
        pos=rng.uniform(0.0, 1.0, 2),
        vel=np.zeros(2),
        flags=np.zeros(spec.num_objects),
        noise_rng=rng_for(seed, "obs-noise"),
    )


def clamp_action(action: np.ndarray, max_speed: float) -> np.ndarray:
    action = np.asarray(action, dtype=float)
    norm = np.linalg.norm(action)
    if norm > max_speed:
        return action * (max_speed / norm)
    return action


def step(state: EnvState, action):
    """Advance one step. Returns (state, achieved sub-goal id or None, done).

    Only the current (first unachieved) sub-goal can be achieved; the goal
    pointer advances strictly in task order.
    """
    if state.done:
        raise EpisodeFinishedError("episode already finished")
    spec = state.spec
    act = clamp_action(action, spec.max_speed)
    state.pos = state.pos + act * spec.dt
    state.vel = act
    state.t += 1
    achieved = None
    goal = state.current_goal
    if goal is not None:
        target = np.asarray(spec.object_positions[goal])
        if np.linalg.norm(state.pos - target) < spec.reach_radius:
            state.flags[goal] = 1.0
            state.goal_index += 1
            achieved = goal
    if state.goal_index >= len(state.task.subgoals) or state.t >= spec.horizon:
        state.done = True
    return state, achieved, state.done


def expert_action(state: EnvState, target: int, rng=None,
                  kp: float = 1.0, sigma: float = 0.005) -> np.ndarray:
    """Proportional controller toward the target object, with seeded noise."""
    err = np.asarray(state.spec.object_positions[target]) - state.pos
    action = kp * err
    if sigma > 0 and rng is not None:
        action = action + rng.normal(0.0, sigma, 2)
    return clamp_action(action, state.spec.max_speed)


def generate_demonstration(spec: EnvSpec, task: Task, seed,
                           corruption=frozenset(),
                           kp: float = 1.0,
                           sigma: float = 0.005) -> Demonstration:
    """Roll out the scripted expert and record goal-labelled transitions.

    Segments belonging to corrupted sub-goals are removed entirely; the
    segment index map covers the retained transitions only.  Raises if the
    expert fails to finish within the horizon.
    """
    corruption = frozenset(corruption)
    state = reset(spec, task, seed)
    rng = rng_for(seed, "expert-noise")
    raw = []
    while not state.done:
        goal = state.current_goal
        obs = state.observation()
        action = expert_action(state, goal, rng, kp=kp, sigma=sigma)
        raw.append(Transition(obs=obs, goal_id=goal, action=action))
        step(state, action)
    if state.goal_index < len(task.subgoals):
        raise DemoGenerationError(
            f"expert failed task {task.id} within H={spec.horizon}")
    transitions = []
    segments = {}
    for g in task.subgoals:
        seg = [tr for tr in raw if tr.goal_id == g]
        if g in corruption:
            continue
        start = len(transitions)
        transitions.extend(seg)
        segments[g] = (start, len(transitions))
    return Demonstration(
        task_id=task.id,
        transitions=transitions,
        subgoal_segments=segments,
        corrupted_subgoals=corruption & set(task.subgoals),
    )


def demo_arrays(demos, goal_bank: GoalBank):
    """All transitions as (inputs, actions, goal ids, task ids), in order.

    An input row is the observation followed by its goal's embedding; task
    ids are a list of the demos' ids, one per row.
    """
    trs = [tr for demo in demos for tr in demo.transitions]
    tasks = [demo.task_id for demo in demos for _ in demo.transitions]
    x = np.array([np.concatenate([tr.obs, goal_bank.get(tr.goal_id)])
                  for tr in trs])
    actions = np.array([tr.action for tr in trs])
    goals = np.array([tr.goal_id for tr in trs], dtype=int)
    return x, actions, goals, tasks


def evaluate_gc(policy, spec: EnvSpec, task: Task, episodes: int, seed) -> float:
    """Mean fraction of sub-goals achieved (in order) over seeded episodes.

    policy: callable (observation vector, current goal id) -> action.
    Episode e runs on an independent stream derived from (seed, e).
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    total = 0.0
    m = len(task.subgoals)
    for ep in range(episodes):
        state = reset(spec, task, (seed, "episode", ep))
        while not state.done:
            action = policy(state.observation(), state.current_goal)
            step(state, action)
        total += state.goal_index / m
    return total / episodes


# --- demonstration serialization (line-delimited JSON) ---

_DEMO_FORMAT_VERSION = 1


def save_demos(demos, spec: EnvSpec, path):
    """One header record, then one record per transition per demo."""
    with open(path, "w") as fh:
        header = {
            "type": "header",
            "version": _DEMO_FORMAT_VERSION,
            "spec": {
                "num_objects": spec.num_objects,
                "object_positions": [list(p) for p in spec.object_positions],
                "reach_radius": spec.reach_radius,
                "max_speed": spec.max_speed,
                "horizon": spec.horizon,
                "dt": spec.dt,
                "obs_noise_sigma": spec.obs_noise_sigma,
                "goal_embed_dim": spec.goal_embed_dim,
                "embed_seed": spec.embed_seed,
            },
            "demos": [
                {
                    "task_id": d.task_id,
                    "subgoal_segments": {str(k): list(v)
                                         for k, v in d.subgoal_segments.items()},
                    "corrupted_subgoals": sorted(d.corrupted_subgoals),
                    "num_transitions": len(d.transitions),
                }
                for d in demos
            ],
        }
        fh.write(json.dumps(header) + "\n")
        for di, d in enumerate(demos):
            for t, tr in enumerate(d.transitions):
                rec = {
                    "demo": di,
                    "task_id": d.task_id,
                    "t": t,
                    "obs": tr.obs.tolist(),
                    "goal_id": tr.goal_id,
                    "action": tr.action.tolist(),
                }
                fh.write(json.dumps(rec) + "\n")


def load_demos(path):
    """Returns (demos, EnvSpec); floats round-trip bit-exactly."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        spec = EnvSpec(
            num_objects=header["spec"]["num_objects"],
            object_positions=tuple(tuple(p)
                                   for p in header["spec"]["object_positions"]),
            reach_radius=header["spec"]["reach_radius"],
            max_speed=header["spec"]["max_speed"],
            horizon=header["spec"]["horizon"],
            dt=header["spec"]["dt"],
            obs_noise_sigma=header["spec"]["obs_noise_sigma"],
            goal_embed_dim=header["spec"]["goal_embed_dim"],
            embed_seed=header["spec"]["embed_seed"],
        )
        demos = [
            Demonstration(
                task_id=meta["task_id"],
                transitions=[],
                subgoal_segments={int(k): tuple(v)
                                  for k, v in meta["subgoal_segments"].items()},
                corrupted_subgoals=frozenset(meta["corrupted_subgoals"]),
            )
            for meta in header["demos"]
        ]
        for line in fh:
            rec = json.loads(line)
            demos[rec["demo"]].transitions.append(Transition(
                obs=np.array(rec["obs"], dtype=float),
                goal_id=rec["goal_id"],
                action=np.array(rec["action"], dtype=float),
            ))
    return demos, spec
