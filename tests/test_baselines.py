import copy
import pickle

import numpy as np
import pytest

from skillcil import baselines, env, harness, nets
from skillcil.baselines import TrainConfig
from skillcil.env import Task, generate_demonstration
from skillcil.iscil import StageDataset


def make_stage(spec, tasks, stage_index=0, demos_per_task=1,
               corruption=frozenset()):
    demos = [generate_demonstration(spec, t, ("stage", stage_index, t.id, j),
                                    corruption=corruption)
             for t in tasks for j in range(demos_per_task)]
    return StageDataset(stage_index=stage_index, demos=demos, tasks=tasks)


def small_cfg(steps=100):
    return TrainConfig(steps_per_stage=steps, batch_size=32)


def params_equal(ps1, ps2):
    return all(np.array_equal(a, b) for a, b in zip(ps1, ps2))


@pytest.fixture
def stage(env_spec):
    return make_stage(env_spec, [Task("t1", (0, 1, 2, 3))])


@pytest.fixture
def stage2(env_spec):
    return make_stage(env_spec, [Task("t2", (4, 5, 6, 0))], stage_index=1)


def test_stage_arrays_shapes(env_spec, goal_bank, stage):
    x, a, goals, tasks = env.demo_arrays(stage.demos, goal_bank)
    n = x.shape[0]
    assert x.shape == (n, env_spec.state_dim)
    assert a.shape == (n, 2)
    assert goals.shape == (n,)
    assert len(tasks) == n
    # Each row is the observation followed by its goal's embedding.
    assert np.array_equal(x[:, env_spec.obs_dim:], goal_bank.embeddings[goals])
    assert set(tasks) == {"t1"}
    assert set(goals) == {0, 1, 2, 3}


def test_seqft_changes_base(base_copy, goal_bank, stage):
    before = [p.copy() for p in nets.base_params(base_copy)]
    method = baselines.SeqFT(base_copy, goal_bank, small_cfg())
    method.train_stage(stage)
    assert not params_equal(before, nets.base_params(base_copy))


def test_seqlora_freezes_base(base_copy, goal_bank, stage):
    before = [p.copy() for p in nets.base_params(base_copy)]
    method = baselines.SeqLoRA(base_copy, goal_bank, small_cfg())
    method.train_stage(stage)
    assert params_equal(before, nets.base_params(base_copy))


def test_ewc_zero_fisher_matches_seqft_bitwise(base_copy, goal_bank, stage):
    """Before any Fisher exists the penalty is exactly zero, so the first
    EWC stage must be bit-identical to plain sequential fine-tuning."""
    ft = baselines.SeqFT(copy.deepcopy(base_copy), goal_bank, small_cfg())
    ewc = baselines.OnlineEWC(copy.deepcopy(base_copy), goal_bank, small_cfg())
    ft.train_stage(stage)
    ewc.train_stage(stage)
    assert params_equal(nets.base_params(ft.base), nets.base_params(ewc.base))


def test_ewc_penalty_changes_later_stages(base_copy, goal_bank, stage, stage2):
    ft = baselines.SeqFT(copy.deepcopy(base_copy), goal_bank, small_cfg())
    ewc = baselines.OnlineEWC(copy.deepcopy(base_copy), goal_bank,
                              small_cfg(), alpha=1000.0)
    for m in (ft, ewc):
        m.train_stage(stage)
        m.train_stage(stage2)
    assert not params_equal(nets.base_params(ft.base),
                            nets.base_params(ewc.base))


def test_ewc_fisher_ema_recurrence():
    # F_bar_2 = gamma * F_1 + (1 - gamma) * F_2 with the raw previous Fisher.
    f1 = [np.array([1.0, 2.0])]
    f2 = [np.array([3.0, 4.0])]
    out = baselines.ema_fisher(f1, f2, 0.9)
    assert np.allclose(out[0], [0.9 * 1.0 + 0.1 * 3.0, 0.9 * 2.0 + 0.1 * 4.0])


def test_empirical_fisher_matches_direct_computation(base_copy, goal_bank,
                                                     stage):
    x, a, *_ = env.demo_arrays(stage.demos, goal_bank)
    x, a = x[:8], a[:8]
    fisher = baselines.empirical_fisher(base_copy, x, a)
    direct = [np.zeros_like(p) for p in nets.base_params(base_copy)]
    for i in range(8):
        _, grads = nets.grad(base_copy, None, x[i:i + 1], a[i:i + 1],
                             trainable="base")
        for d, g in zip(direct, grads):
            d += g * g / 8
    for f, d in zip(fisher, direct):
        assert np.allclose(f, d, atol=1e-12)


def test_l2m_keys_move_toward_queries(base_copy, goal_bank, stage):
    method = baselines.L2M(base_copy, goal_bank, small_cfg(20), pool_size=10)
    keys_before = method.keys.copy()
    method.train_stage(stage)
    assert not np.array_equal(keys_before, method.keys)
    assert method.usage.sum() > 0


def test_l2m_goal_mode_query_dim(base_copy, goal_bank, env_spec):
    method = baselines.L2M(base_copy, goal_bank, small_cfg(), pool_size=5,
                           mode="state+goal")
    assert method.keys.shape[1] == env_spec.state_dim
    method2 = baselines.L2M(base_copy, goal_bank, small_cfg(), pool_size=5,
                            mode="state")
    assert method2.keys.shape[1] == env_spec.obs_dim


def test_l2m_rejects_unknown_mode(base_copy, goal_bank):
    with pytest.raises(ValueError):
        baselines.L2M(base_copy, goal_bank, mode="nope")


def test_tail_task_isolated_adapters(base_copy, goal_bank, stage, stage2):
    method = baselines.Tail(base_copy, goal_bank, small_cfg(), kind="task")
    method.train_stage(stage)
    snap = copy.deepcopy(method.registry["t1"])
    method.train_stage(stage2)
    assert set(method.registry) == {"t1", "t2"}
    for l1, l2 in zip(snap.layers, method.registry["t1"].layers):
        assert np.array_equal(l1.a, l2.a)  # untouched by the second stage
        assert np.array_equal(l1.b, l2.b)


def test_tail_goal_shared_slots_get_retrained(base_copy, goal_bank, env_spec):
    method = baselines.Tail(base_copy, goal_bank, small_cfg(), kind="goal")
    method.train_stage(make_stage(env_spec, [Task("t1", (0, 1, 2, 3))]))
    snap = copy.deepcopy(method.registry[0])
    method.train_stage(make_stage(env_spec, [Task("t2", (0, 4, 5, 6))],
                                  stage_index=1))
    # Sub-goal 0 reappeared, so its shared adapter was overwritten.
    assert any(not np.array_equal(l1.b, l2.b)
               for l1, l2 in zip(snap.layers, method.registry[0].layers))


def test_tail_fallback_recorded(base_copy, goal_bank, stage, env_spec):
    method = baselines.Tail(base_copy, goal_bank, small_cfg(), kind="task")
    method.train_stage(stage)
    novel = Task("never-seen", (4, 5, 6, 0))
    pol = method.policy_for_task(novel)
    st = env.reset(env_spec, novel, 0)
    pol(st.observation(), 4)
    assert method.fallbacks == 1


def test_tail_unlearn_drops_task_adapter(base_copy, goal_bank, stage):
    method = baselines.Tail(base_copy, goal_bank, small_cfg(), kind="task")
    method.train_stage(stage)
    removed = method.unlearn("t1")
    assert [tid for tid, _ in removed] == ["t1"]
    assert "t1" not in method.registry
    assert method.unlearn("t1") == []


def test_er_quota_zero_is_seqft_bitwise(base_copy, goal_bank, stage, stage2):
    ft = baselines.SeqFT(copy.deepcopy(base_copy), goal_bank, small_cfg())
    er = baselines.ER(copy.deepcopy(base_copy), goal_bank, small_cfg(),
                      quota=0)
    for m in (ft, er):
        m.train_stage(stage)
        m.train_stage(stage2)
    assert params_equal(nets.base_params(ft.base), nets.base_params(er.base))
    assert er._buffer_size() == 0
    assert er.composition.sum() == 0


def test_er_negative_quota_rejected(base_copy, goal_bank):
    with pytest.raises(ValueError):
        baselines.ER(base_copy, goal_bank, quota=-1)


def test_er_buffer_growth_and_mixing(base_copy, goal_bank, stage, stage2):
    er = baselines.ER(base_copy, goal_bank, small_cfg(50), quota=30)
    n1 = sum(len(d.transitions) for d in stage.demos)
    n2 = sum(len(d.transitions) for d in stage2.demos)
    er.train_stage(stage)
    assert er._buffer_size() == min(30, n1)  # quota capped by stage size
    assert er.composition.sum() == 0  # no replay during the first stage
    er.train_stage(stage2)
    assert er._buffer_size() == min(30, n1) + min(30, n2)
    assert er.composition.sum() == 50 * 32
    # Fair-coin mixing: replay fraction should be near one half.
    frac = er.composition[1] / er.composition.sum()
    assert 0.4 < frac < 0.6


def test_multitask_stores_everything(base_copy, goal_bank, stage, stage2):
    mt = baselines.MultiTask(base_copy, goal_bank, small_cfg(20))
    mt.train_stage(stage)
    n1 = sum(len(d.transitions) for d in stage.demos)
    assert mt._buffer_size() == n1
    mt.train_stage(stage2)
    n2 = sum(len(d.transitions) for d in stage2.demos)
    assert mt._buffer_size() == n1 + n2


@pytest.mark.parametrize("method_id", harness.METHOD_IDS)
def test_methods_are_deterministic(base_copy, goal_bank, stage, stage2,
                                   method_id):
    """Two stages of training, repeated, give bitwise-identical state."""
    params = {"steps_per_stage": 20, "batch_size": 16}
    if method_id == "er":
        params["quota"] = 20  # so the second stage samples mixed batches
    results = []
    for _ in range(2):
        method = harness.make_method(method_id, base_copy, goal_bank, seed=0,
                                     params=params)
        method.train_stage(stage)
        method.train_stage(stage2)
        results.append(pickle.dumps(method))
    assert results[0] == results[1]
