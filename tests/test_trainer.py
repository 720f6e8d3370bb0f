import json
import struct
from pathlib import Path

import numpy as np
import pytest

import costbound as cb
from costbound.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from costbound.latent import NonFiniteLossError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def short_config(**overrides):
    """desk.cfg shrunk to seconds: 20-decision episodes, a 50-record ring
    that wraps, 30 warmup records and 35 main-phase decisions."""
    return cb.load_config(CONFIGS / "desk.cfg", overrides={
        "seed": 4, "episode_limit": 20, "replay_capacity": 50, "sequence_length": 4,
        "model_batch": 4, "ac_batch": 4, "warmup_transitions": 30, "warmup_model_steps": 2,
        "total_env_steps": 130, "eval_interval": 50, "eval_episodes": 1, "checkpoint_interval": 20,
        **overrides,
    })


def test_resume_from_any_checkpoint_reproduces_the_run(tmp_path):
    trainer = cb.Trainer(short_config(), tmp_path / "full")
    final = trainer.run().read_bytes()
    metrics = trainer.metrics_path.read_text()
    # mid warmup collection; the last warmup-collection step (the next call
    # runs the model-only updates, then the main phase); main phase,
    # mid-episode, after eviction
    for step, live in ((20, False), (60, False), (120, True)):
        restored = cb.Trainer.restore(tmp_path / "full" / f"step_{step}.ckpt", tmp_path / str(step))
        assert (restored.z1 is not None, restored.env_step) == (live, step)
        if live:
            assert len(restored.buffer) < restored.env_step // 2  # one record per decision
            assert restored.env.env.get_state()["steps"] % 40 != 0
        assert restored.run().read_bytes() == final
        assert restored.metrics_path.read_text() == metrics


def test_non_finite_critic_leaves_the_diagnostic_checkpoint_as_before_the_step(tmp_path):
    trainer = cb.Trainer(short_config(total_env_steps=70, checkpoint_interval=0), tmp_path)
    trainer.run()
    trainer.q1.parameters()[0].data[0, 0] = np.nan
    before = {name: arr.copy() for name, arr in trainer._arrays().items()}
    steps = {name: opt.step_count for name, opt in trainer._optimizers().items()}
    with pytest.raises(NonFiniteLossError):
        trainer._gradient_step()
    meta, arrays = load_checkpoint(tmp_path / "diagnostic.ckpt")
    assert meta["opt_steps"] == steps
    for key, value in before.items():
        assert np.array_equal(arrays[key], value, equal_nan=True), key
    assert np.isnan(arrays["params/q1/000"]).sum() == 1


def test_non_finite_model_loss_leaves_the_model_in_the_diagnostic_checkpoint_as_before_the_step(tmp_path):
    trainer = cb.Trainer(short_config(total_env_steps=70, checkpoint_interval=0), tmp_path)
    trainer.run()
    trainer.model.decoder.deconv2.b.data[0] = np.nan
    before = {name: arr.copy() for name, arr in trainer._arrays().items()}
    steps = {name: opt.step_count for name, opt in trainer._optimizers().items()}
    with pytest.raises(NonFiniteLossError, match="model loss diverged"):
        trainer._gradient_step()
    meta, arrays = load_checkpoint(tmp_path / "diagnostic.ckpt")
    # the reward critics step before the model update, and nothing after it
    assert (steps["q1"], steps["q2"]) == (5, 5)
    assert meta["opt_steps"] == {**steps, "q1": 6, "q2": 6}
    critics = ("params/q1/", "params/q2/", "opt/q1/", "opt/q2/")
    for key, value in before.items():
        if key.startswith(critics):
            continue
        assert np.array_equal(arrays[key], value, equal_nan=True), key
    assert not np.array_equal(arrays["params/q1/000"], before["params/q1/000"])
    assert sum(int(np.isnan(arr).sum()) for key, arr in arrays.items() if key.startswith("params/model/")) == 1


SCHEDULES = {
    # intervals that are not multiples of action_repeat (2): each point
    # falls on the first decision past it
    "odd intervals": (
        {"eval_interval": 25, "checkpoint_interval": 15},
        [76, 100, 126],
        [16, 30, 46, 60, 76, 90, 106, 120],
    ),
    # an eval_interval below action_repeat: one decision records two rows
    "eval below action_repeat": (
        {"eval_interval": 1, "checkpoint_interval": 7, "total_env_steps": 70},
        [62, 62, 64, 64, 66, 66, 68, 68, 70, 70],
        [8, 14, 22, 28, 36, 42, 50, 56, 64, 70],
    ),
    # no warmup: the main phase starts with no data, and no model-only
    # update runs
    "no warmup": (
        {"warmup_transitions": 0, "eval_interval": 15, "checkpoint_interval": 25, "total_env_steps": 40},
        [16, 30],
        [26],
    ),
}


@pytest.mark.parametrize("overrides, eval_steps, checkpoint_steps", SCHEDULES.values(), ids=SCHEDULES.keys())
def test_evaluations_and_checkpoints_fall_where_env_step_crosses_their_interval(
    tmp_path, overrides, eval_steps, checkpoint_steps
):
    trainer = cb.Trainer(short_config(**overrides), tmp_path / "full")
    final = trainer.run().read_bytes()
    metrics = trainer.metrics_path.read_text()
    assert [int(row.split(",")[0]) for row in metrics.splitlines()[1:]] == eval_steps
    names = sorted(path.name for path in (tmp_path / "full").glob("step_*.ckpt"))
    assert names == sorted(f"step_{step}.ckpt" for step in checkpoint_steps)
    # every model update but the model-only ones came with an actor update
    model_only = trainer.opt_model.step_count - trainer.opt_actor.step_count
    assert model_only == (0 if trainer.cfg.warmup_transitions == 0 else trainer.cfg.warmup_model_steps)
    for step in checkpoint_steps:
        restored = cb.Trainer.restore(tmp_path / "full" / f"step_{step}.ckpt", tmp_path / str(step))
        assert restored.run().read_bytes() == final, step
        assert restored.metrics_path.read_text() == metrics, step
        # the resumed run writes the later checkpoints and no other
        resumed = sorted(path.name for path in (tmp_path / str(step)).glob("step_*.ckpt"))
        assert resumed == sorted(f"step_{later}.ckpt" for later in checkpoint_steps if later > step), step


@pytest.fixture(scope="module")
def main_phase_checkpoint(tmp_path_factory):
    """The final checkpoint of a run that ends in the main phase, with the filter live."""
    return cb.Trainer(short_config(total_env_steps=70, checkpoint_interval=0), tmp_path_factory.mktemp("run")).run()


def test_the_header_is_plain_json_with_each_fact_once(main_phase_checkpoint):
    data = main_phase_checkpoint.read_bytes()
    (header_len,) = struct.unpack_from("<Q", data, len(MAGIC) + 4)
    header = json.loads(data[len(MAGIC) + 12 : len(MAGIC) + 12 + header_len])
    meta, _ = load_checkpoint(main_phase_checkpoint)
    assert header["meta"] == meta
    assert sorted(meta) == sorted([
        "env_step", "grad_accum", "ep_cost", "metrics_rows", "loss_sums", "loss_counts",
        "state_version", "config", "lagrange_lam", "opt_steps", "rngs", "env_state", "buffer_meta",
    ])


def test_evaluate_gives_each_episode_its_own_seed(main_phase_checkpoint, tmp_path):
    restored = cb.Trainer.restore(main_phase_checkpoint, tmp_path)
    seeds = []
    reset = restored.eval_env.reset

    def recording_reset(seed=None):
        seeds.append(seed)
        return reset(seed=seed)

    restored.eval_env.reset = recording_reset
    restored.evaluate()
    (first,) = seeds
    restored.evaluate(episodes=5)
    assert len(set(seeds[1:])) == 5 and seeds[1] == first


def test_restore_fills_the_constructed_trainer_and_saves_the_same_bytes(main_phase_checkpoint, tmp_path):
    _, arrays = load_checkpoint(main_phase_checkpoint)
    restored = cb.Trainer.restore(main_phase_checkpoint, tmp_path)
    table = restored._arrays()
    assert "state/z1" in table and set(arrays) - set(table) == {n for n in arrays if n.startswith("buffer/")}
    for name, arr in table.items():
        assert arr.flags.writeable and np.array_equal(arr, arrays[name]), name
    assert restored.save(tmp_path / "again.ckpt").read_bytes() == main_phase_checkpoint.read_bytes()


def test_training_after_restore_writes_nothing_through_the_checkpoint_views(main_phase_checkpoint, tmp_path, monkeypatch):
    loaded = []

    def recording_load(path):
        meta, arrays = load_checkpoint(path)
        loaded.append(arrays)
        return meta, arrays

    monkeypatch.setattr("costbound.trainer.load_checkpoint", recording_load)
    restored = cb.Trainer.restore(main_phase_checkpoint, tmp_path)
    (views,) = loaded
    assert not any(view.flags.writeable for view in views.values())
    before = {name: view.copy() for name, view in views.items()}
    for _ in range(3):
        restored._collect(restored._policy_action())
        restored._gradient_step()
    live = {
        **restored._arrays(),
        **{f"buffer.state()/{name}": arr for name, arr in restored.buffer.state()[1].items()},
        **{f"ring/{name}": arr for name, arr in restored.buffer._records.items()},
    }
    for name, view in views.items():
        assert np.array_equal(view, before[name]), name
        for live_name, arr in live.items():
            assert not np.shares_memory(arr, view), (live_name, name)


MISMATCHES = {
    "missing array": lambda a: a.pop("params/q1/000"),
    "missing buffer array": lambda a: a.pop("buffer/rew"),
    "extra array": lambda a: a.update({"params/q1/999": np.zeros(3)}),
    "shape mismatch": lambda a: a.update({"params/model/000": a["params/model/000"][:1]}),
    "dtype mismatch": lambda a: a.update({"opt/q1/000": a["opt/q1/000"].astype(np.int64)}),
    "buffer dtype mismatch": lambda a: a.update({"buffer/rew": a["buffer/rew"].astype(np.int64)}),
}


@pytest.mark.parametrize("edit", MISMATCHES.values(), ids=MISMATCHES.keys())
def test_restore_rejects_arrays_that_do_not_match_the_trainer(main_phase_checkpoint, tmp_path, edit):
    meta, arrays = load_checkpoint(main_phase_checkpoint)
    arrays = dict(arrays)
    edit(arrays)
    save_checkpoint(tmp_path / "bad.ckpt", meta, arrays)
    with pytest.raises(CheckpointError):
        cb.Trainer.restore(tmp_path / "bad.ckpt", tmp_path / "out")
