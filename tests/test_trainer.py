import json
import struct
import tracemalloc
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


def assert_no_parameter_holds_a_gradient(trainer):
    for name, opt in trainer._optimizers().items():
        assert [i for i, p in enumerate(opt.params) if p.grad is not None] == [], name


def test_no_gradient_outlives_the_optimizer_step_that_uses_it(tmp_path):
    trainer = cb.Trainer(short_config(total_env_steps=70, checkpoint_interval=0), tmp_path)
    trainer.run()
    steps = {name: opt.step_count for name, opt in trainer._optimizers().items()}
    trainer._gradient_step()
    assert {name: opt.step_count - steps[name] for name, opt in trainer._optimizers().items()} == dict.fromkeys(steps, 1)
    assert trainer.temperature.optimizer.params == [trainer.temperature.log_alpha]
    assert_no_parameter_holds_a_gradient(trainer)


def test_non_finite_critic_leaves_the_diagnostic_checkpoint_as_before_the_step(tmp_path):
    trainer = cb.Trainer(short_config(total_env_steps=70, checkpoint_interval=0), tmp_path)
    trainer.run()
    trainer.q1.parameters()[0].data[0, 0] = np.nan
    before = {name: arr.copy() for name, arr in trainer._arrays().items()}
    steps = {name: opt.step_count for name, opt in trainer._optimizers().items()}
    with pytest.raises(NonFiniteLossError):
        trainer._gradient_step()
    assert_no_parameter_holds_a_gradient(trainer)
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


def test_restore_reads_into_writeable_arrays_that_own_their_memory_and_share_none(
    main_phase_checkpoint, tmp_path, monkeypatch
):
    loaded = []

    def recording_load(path, into=None):
        meta, arrays = load_checkpoint(path, into)
        loaded.append(arrays)
        return meta, arrays

    monkeypatch.setattr("costbound.trainer.load_checkpoint", recording_load)
    restored = cb.Trainer.restore(main_phase_checkpoint, tmp_path)
    (arrays,) = loaded
    ring = restored.buffer._records
    live = {**restored._arrays(), **{f"buffer/{name}": ring[name][: len(restored.buffer)] for name in ring}}
    assert arrays.keys() == live.keys()
    for name, arr in arrays.items():
        # each array was read into the live one it fills: the trainer's own,
        # or the ring's first rows
        assert arr.flags.writeable and np.shares_memory(arr, live[name]), name
        owner = ring[name.split("/", 1)[1]] if name.startswith("buffer/") else arr
        assert owner.flags.owndata, name
    names = sorted(arrays)
    for i, first in enumerate(names):
        for second in names[i + 1 :]:
            assert not np.may_share_memory(arrays[first], arrays[second]), (first, second)
    for _ in range(3):
        restored._collect(restored._policy_action())
        restored._gradient_step()


@pytest.fixture(scope="module")
def wrapped_run(tmp_path_factory):
    """A trainer after warmup collection alone whose 200-record ring of
    64x64 frames wrapped: its live records are two runs of the ring."""
    cfg = short_config(view_size=64, replay_capacity=200, warmup_transitions=260, total_env_steps=520,
                       checkpoint_interval=0)
    trainer = cb.Trainer(cfg, tmp_path_factory.mktemp("wrapped"))
    trainer.run()
    assert [len(run) for run in trainer.buffer.runs()[1]["obs"]] == [140, 60]
    return trainer


def traced_peak(fn, *args):
    """(result, peak bytes that tracemalloc saw allocated during the call)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_writes_the_wrapped_ring_without_copying_it(wrapped_run, tmp_path):
    frames = sum(run.nbytes for run in wrapped_run.buffer.runs()[1]["obs"])
    path, peak = traced_peak(wrapped_run.save, tmp_path / "streamed.ckpt")
    assert peak < frames / 4, (peak, frames)
    # the same bytes as a save of state()'s joined copies
    meta, _ = load_checkpoint(path)
    buffer_meta, buffer_arrays = wrapped_run.buffer.state()
    assert meta["buffer_meta"] == buffer_meta
    arrays = {**wrapped_run._arrays(), **{f"buffer/{name}": arr for name, arr in buffer_arrays.items()}}
    save_checkpoint(tmp_path / "joined.ckpt", meta, arrays)
    assert path.read_bytes() == (tmp_path / "joined.ckpt").read_bytes()


def test_restore_allocates_only_the_trainers_own_arrays(wrapped_run, tmp_path):
    path = wrapped_run.save(tmp_path / "a.ckpt")
    restored, peak = traced_peak(cb.Trainer.restore, path, tmp_path / "out")
    own = sum(arr.nbytes for arr in restored._arrays().values())
    own += sum(arr.nbytes for arr in restored.buffer._records.values())
    assert path.stat().st_size > 10 * 2**20  # a copy of the file would not fit the margin below
    assert peak < own + 2**20, (peak, own)
    assert restored.save(tmp_path / "b.ckpt").read_bytes() == path.read_bytes()


def ring_payload(path):
    """(start, end) byte offsets of the stored frames in a checkpoint file."""
    data = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", data, len(MAGIC) + 4)
    header = json.loads(data[len(MAGIC) + 12 : len(MAGIC) + 12 + header_len])
    (entry,) = [e for e in header["arrays"] if e["name"] == "buffer/obs"]
    start = len(MAGIC) + 12 + header_len + entry["offset"]
    return start, start + int(np.prod(entry["shape"]))


HEADER_EDITS = {
    # each keeps the header parseable JSON; the digest would catch it, but only after the payload
    "a meta key": (b'"env_step":', b'"env_stop":'),
    "a config key": (b'"hazard_count":', b'"hazard_kount":'),
    "a config value": (b'"replay_capacity":50,', b'"replay_capacity":-5,'),
    "the buffer meta": (b'"lengths":', b'"lengthz":'),
}


@pytest.mark.parametrize("old, new", HEADER_EDITS.values(), ids=HEADER_EDITS.keys())
def test_restore_refuses_a_header_that_no_longer_describes_a_trainer(main_phase_checkpoint, tmp_path, old, new):
    data = main_phase_checkpoint.read_bytes()
    assert data.count(old) == 1 and len(old) == len(new)
    (tmp_path / "bad.ckpt").write_bytes(data.replace(old, new))
    with pytest.raises(CheckpointError):
        cb.Trainer.restore(tmp_path / "bad.ckpt", tmp_path / "out")


@pytest.mark.parametrize("damage", ["flipped byte", "cut short"])
def test_restore_refuses_a_ring_payload_that_is_damaged(wrapped_run, tmp_path, damage):
    path = wrapped_run.save(tmp_path / "a.ckpt")
    start, end = ring_payload(path)
    data = bytearray(path.read_bytes())
    middle = (start + end) // 2
    if damage == "flipped byte":
        data[middle] ^= 0x01
    else:
        del data[middle:]
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="checksum" if damage == "flipped byte" else "truncated"):
        cb.Trainer.restore(path, tmp_path / "out")


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
