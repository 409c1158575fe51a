import numpy as np
import pytest

from skillcil import harness, metrics
from skillcil.env import EnvSpec
from skillcil.errors import ConfigError
from skillcil.harness import RunConfig, ScenarioSpec


FAST_PARAMS = {"steps_per_stage": 60, "batch_size": 32}


def scenario(**kw):
    defaults = dict(kind="complete", num_stages=2, tasks_per_stage=1,
                    demos_per_task=1, subgoals_per_task=4)
    defaults.update(kw)
    return ScenarioSpec(**defaults)


# --- stream construction ---

def test_complete_stream_full_demos(env_spec):
    stream = harness.build_stream(scenario(num_stages=4), env_spec, 0)
    assert len(stream.stages) == 4
    for stage in stream.stages:
        for demo in stage.demos:
            assert demo.corrupted_subgoals == frozenset()
            assert len(demo.subgoal_segments) == 4


def test_incomplete_stream_one_missing_subgoal_per_task(env_spec):
    stream = harness.build_stream(scenario(kind="incomplete", num_stages=4),
                                  env_spec, 0)
    for s, stage in enumerate(stream.stages):
        for demo in stage.demos:
            task = stream.tasks_by_id[demo.task_id]
            assert len(demo.corrupted_subgoals) == 1
            # Designated sub-goal rotates with the stage index.
            assert demo.corrupted_subgoals == \
                frozenset([task.subgoals[s % 4]])


def test_semi_stream_repeats_and_covers(env_spec):
    stream = harness.build_stream(scenario(kind="semi", num_stages=4),
                                  env_spec, 0)
    half = 2
    for s in range(half):
        first = stream.stages[s]
        second = stream.stages[s + half]
        assert [t.id for t in first.tasks] == [t.id for t in second.tasks]
        # Complementary corruption: both passes together cover every sub-goal.
        for d1, d2 in zip(first.demos, second.demos):
            assert d1.corrupted_subgoals != d2.corrupted_subgoals
            task = stream.tasks_by_id[d1.task_id]
            covered = (set(d1.subgoal_segments) | set(d2.subgoal_segments))
            assert covered == set(task.subgoals)


def test_semi_stream_requires_even_stages(env_spec):
    with pytest.raises(ConfigError):
        harness.build_stream(scenario(kind="semi", num_stages=3), env_spec, 0)


def test_unknown_kind_rejected(env_spec):
    with pytest.raises(ConfigError):
        harness.build_stream(scenario(kind="weird"), env_spec, 0)


def test_stream_deterministic(env_spec):
    s1 = harness.build_stream(scenario(num_stages=3), env_spec, 5)
    s2 = harness.build_stream(scenario(num_stages=3), env_spec, 5)
    for a, b in zip(s1.stages, s2.stages):
        assert [t.subgoals for t in a.tasks] == [t.subgoals for t in b.tasks]
        for d1, d2 in zip(a.demos, b.demos):
            assert all(np.array_equal(t1.obs, t2.obs)
                       for t1, t2 in zip(d1.transitions, d2.transitions))


def test_unseen_schedule(env_spec):
    stream = harness.build_stream(
        scenario(num_stages=6, unseen_every=3, unseen_count=2), env_spec, 0)
    assert set(stream.unseen) == {2, 5}
    assert all(len(v) == 2 for v in stream.unseen.values())
    trained_ids = {t.id for st in stream.stages for t in st.tasks}
    for tasks in stream.unseen.values():
        assert all(t.id not in trained_ids for t in tasks)


def test_unlearn_schedule_oldest_first_no_repeat(env_spec):
    stream = harness.build_stream(
        scenario(num_stages=6, unlearn_every=2, unlearn_count=1), env_spec, 0)
    assert set(stream.unlearn_events) == {1, 3, 5}
    picked = [tid for ev in stream.unlearn_events.values() for tid in ev]
    assert len(picked) == len(set(picked))
    assert stream.unlearn_events[1] == [stream.stages[0].tasks[0].id]


# --- pretraining ---

def test_pretrain_tasks_all_orderings(env_spec):
    tasks = harness.pretrain_tasks(env_spec, (0, 1, 2))
    assert len(tasks) == 6
    assert len({t.subgoals for t in tasks}) == 6


def test_pretrain_needs_two_objects(env_spec):
    with pytest.raises(ConfigError):
        harness.pretrain(env_spec, (0,), 10, seed=0)


def test_pretrained_base_solves_pretraining_tasks(env_spec, goal_bank,
                                                  pretrained_base):
    from skillcil.env import Task, evaluate_gc
    from conftest import base_policy_fn

    pol = base_policy_fn(pretrained_base, goal_bank)
    gc = evaluate_gc(pol, env_spec, Task("chk", (0, 1, 2, 3)), 5, "pretrain")
    assert gc >= 0.9


# --- method factory ---

def test_factory_covers_all_method_ids(pretrained_base, goal_bank):
    for mid in harness.METHOD_IDS:
        params = {"quota": 10} if mid == "er" else {}
        method = harness.make_method(mid, pretrained_base, goal_bank, 0,
                                     params)
        assert hasattr(method, "train_stage")
        assert hasattr(method, "policy_for_task")


def test_factory_deep_copies_base(pretrained_base, goal_bank):
    method = harness.make_method("seqft", pretrained_base, goal_bank, 0)
    assert method.base is not pretrained_base


def test_er_requires_quota(pretrained_base, goal_bank):
    with pytest.raises(ConfigError):
        harness.make_method("er", pretrained_base, goal_bank, 0)


def test_unknown_method_rejected(pretrained_base, goal_bank):
    with pytest.raises(ConfigError):
        harness.make_method("sgd-magic", pretrained_base, goal_bank, 0)


# --- experiment loop ---

def run(pretrained_base, tmp_path=None, method_id="seqft", seed=0,
        stop_after_stage=None, scen=None, method_params=None):
    cfg = RunConfig(
        env=EnvSpec(), scenario=scen or scenario(),
        method_id=method_id,
        method_params=dict(method_params or FAST_PARAMS),
        seed=seed, eval_episodes=2,
        out_dir=str(tmp_path) if tmp_path else None,
        config_bytes=b"test-config")
    return harness.run_experiment(cfg, base=pretrained_base,
                                  stop_after_stage=stop_after_stage)


def test_run_records_all_trained_tasks(pretrained_base):
    rec = run(pretrained_base)
    assert len(rec.matrix.tasks()) == 2
    for task in rec.matrix.tasks():
        # Evaluated at its training stage and every later stage.
        i = rec.matrix.trained[task][0]
        for s in range(i, 2):
            assert (task, s) in rec.matrix.scores
    assert rec.provenance == harness.provenance_hash(b"test-config")


def test_run_deterministic(pretrained_base):
    r1 = run(pretrained_base, seed=3)
    r2 = run(pretrained_base, seed=3)
    assert r1.matrix.scores == r2.matrix.scores


def test_run_unlearn_event_stops_evaluation(pretrained_base):
    scen = scenario(num_stages=3, unlearn_every=2)
    rec = run(pretrained_base, method_id="tail-tau-clpu", scen=scen)
    events = [r for r in rec.stage_reports if "unlearned" in r]
    assert events
    gone = events[0]["unlearned"][0]
    stage = events[0]["stage"]
    assert (gone, stage) not in rec.matrix.scores
    assert all(s < stage for (t, s) in rec.matrix.scores if t == gone)


def test_run_unseen_tasks_evaluated_not_trained(pretrained_base):
    scen = scenario(num_stages=2, unseen_every=2, unseen_count=1)
    rec = run(pretrained_base, scen=scen)
    unseen = [t for (t, _) in rec.matrix.scores if t.startswith("unseen")]
    assert unseen
    assert all(t not in rec.matrix.trained for t in unseen)


def test_resume_matches_uninterrupted(pretrained_base, tmp_path):
    full_dir = tmp_path / "full"
    part_dir = tmp_path / "part"
    full = run(pretrained_base, full_dir)
    run(pretrained_base, part_dir, stop_after_stage=0)
    resumed = run(pretrained_base, part_dir)  # picks up after stage 0
    assert resumed.matrix.scores == full.matrix.scores
    assert (part_dir / "scores.csv").exists()
    loaded = metrics.load_matrix(part_dir / "scores.csv")
    assert loaded.scores == full.matrix.scores


def test_tail_g_persists_stage_reports(pretrained_base, tmp_path):
    # Sub-goal identifiers key tail-g's per-adapter losses; the stage report
    # must still serialize to JSON when every stage is persisted.
    rec = run(pretrained_base, tmp_path, method_id="tail-g")
    assert len(rec.stage_reports) == 2
    assert (tmp_path / "scores.csv").exists()
    lines = (tmp_path / "stage_reports.jsonl").read_text().splitlines()
    assert len(lines) == 2


# --- reporting ---

def test_report_aggregates_seeds(pretrained_base):
    results = [run(pretrained_base, seed=s) for s in (0, 1)]
    rows = harness.report(results)
    assert len(rows) == 1
    row = rows[0]
    assert row["method"] == "seqft" and row["seeds"] == 2
    per_seed = [metrics.auc(r.matrix)[1] for r in results]
    assert np.isclose(row["auc_mean"], np.mean(per_seed))
    assert np.isclose(row["auc_std"], np.std(per_seed))  # population stddev


def test_report_refuses_mixed_scenarios(pretrained_base):
    r1 = run(pretrained_base)
    r2 = run(pretrained_base, scen=scenario(kind="incomplete"))
    with pytest.raises(ConfigError):
        harness.report([r1, r2])


def test_report_includes_adaptation_columns(pretrained_base, tmp_path):
    scen = scenario(num_stages=2, unseen_every=2, unseen_count=1)
    rec = run(pretrained_base, scen=scen)
    rows = harness.report([rec], path=tmp_path / "report.csv")
    assert "fwt_a_mean" in rows[0]
    assert (tmp_path / "report.csv").exists()
