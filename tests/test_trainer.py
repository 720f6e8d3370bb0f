from pathlib import Path

import numpy as np
import pytest

import costbound as cb
from costbound.checkpoint import load_checkpoint
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
    # enters warmup_model, then main); main phase, mid-episode, after eviction
    for step, phase, collected in (("20", "warmup_collect", 10), ("60", "warmup_collect", 30), ("120", "main", 30)):
        restored = cb.Trainer.restore(tmp_path / "full" / f"step_{step}.ckpt", tmp_path / step)
        assert (restored.phase, restored.warmup_collected) == (phase, collected)
        if phase == "main":
            assert len(restored.buffer) < restored.env_step // 2  # one record per decision
            assert restored.env.env.get_state()["steps"] % 40 != 0
        assert restored.run().read_bytes() == final
        assert restored.metrics_path.read_text() == metrics


def test_non_finite_critic_leaves_the_diagnostic_checkpoint_as_before_the_step(tmp_path):
    trainer = cb.Trainer(short_config(total_env_steps=70, checkpoint_interval=0), tmp_path)
    trainer.run()
    trainer.q1.parameters()[0].data[0, 0] = np.nan
    groups = trainer._param_groups()
    before = {f"params/{g}/{i:03d}": p.data.copy() for g, ps in groups.items() for i, p in enumerate(ps)}
    steps = {}
    for name, opt in trainer._optimizers().items():
        steps[name] = opt.step_count
        before.update({f"opt/{name}/{i:03d}": a.copy() for i, a in enumerate(opt.state_arrays())})
    with pytest.raises(NonFiniteLossError):
        trainer._gradient_step()
    meta, arrays = load_checkpoint(tmp_path / "diagnostic.ckpt")
    assert meta["opt_steps"] == steps
    for key, value in before.items():
        assert np.array_equal(arrays[key], value, equal_nan=True), key
    assert np.isnan(arrays["params/q1/000"]).sum() == 1
