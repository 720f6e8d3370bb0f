"""Self-tests of the benchmark's own helpers: python3 -m pytest perfbench -q"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import costbound as cb  # noqa: E402
from costbound.checkpoint import save_checkpoint  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, self_times, uncovered_time  # noqa: E402

CONFIGS = HERE.parent / "configs"


def test_rasterizer_hand_placed_scene():
    cfg = types.SimpleNamespace(view_size=4, view_extent=4.0, arena_size=10.0, goal_radius=0.8, hazard_radius=1.2)
    # pixel centres sit at offsets -1.5, -0.5, 0.5, 1.5 from the agent
    state = {"pos": np.array([0.5, 5.0]), "goal": np.array([2.0, 5.5]), "hazards": np.array([[0.0, 3.5]])}
    img = checks.rasterize(state, cfg)
    goal = np.zeros((4, 4), np.uint8)
    goal[2, 3] = 255  # x=2.0, y=5.5 is the goal centre
    hazard = np.zeros((4, 4), np.uint8)
    hazard[0, 0:3] = 255  # row y=3.5, x in {-1, 0, 1}; x=2 is 2.0 away
    hazard[1, 1] = 255  # row y=4.5, x=0 is 1.0 away; x=+-1 are 1.41 away
    walls = np.zeros((4, 4), np.uint8)
    walls[:, 0] = 255  # x=-1 lies beyond the west wall
    np.testing.assert_array_equal(img, np.stack([goal, hazard, walls]))


def test_rasterizer_matches_hazardworld_render():
    cfg = cb.load_config(CONFIGS / "desk.cfg")
    world = cb.build_env(cfg, seed=3).env
    rng = np.random.default_rng(0)
    for _ in range(30):
        world.step(rng.uniform(-1, 1, size=2))
        np.testing.assert_array_equal(world.render_uint8(), checks.rasterize(world.get_state(), world.cfg))


def test_schedule_of_shipped_configs():
    desk = checks.schedule(cb.load_config(CONFIGS / "desk.cfg"))
    assert (desk.collect_decisions, desk.model_only_steps, desk.main_decisions) == (3000, 2000, 22000)
    assert (desk.grad_steps, desk.evaluations, desk.end_env_step) == (22000, 44, 50000)
    assert desk.eval_decisions == 44 * 10 * 100
    full = checks.schedule(cb.load_config(CONFIGS / "full.cfg"))
    assert (full.main_decisions, full.grad_steps, full.evaluations) == (440000, 880000, 88)


def test_schedule_matches_a_short_run(tmp_path):
    cfg = cb.load_config(CONFIGS / "desk.cfg", overrides={
        "warmup_transitions": 20, "warmup_model_steps": 3, "total_env_steps": 40,
        "eval_interval": 6, "eval_episodes": 1, "grad_steps_per_env_step": 0.75,
    })
    trainer = cb.Trainer(cfg, tmp_path)
    trainer.run()
    cfg.total_env_steps = 47  # one run resumed past an odd stop
    trainer.run()
    plan = checks.schedule(cfg)
    assert trainer.env_step == plan.end_env_step == 48
    assert trainer.opt_actor.step_count == plan.grad_steps == 6  # 4 decisions x 1.5
    assert trainer.opt_model.step_count == plan.model_only_steps + plan.grad_steps
    assert len(trainer.metrics_rows) == plan.evaluations == 2  # at env steps 42 and 48
    assert checks.projected_hours(plan, 1.0, 2.0, 3.0, 4.0) * 3600 == pytest.approx(20 + 6 + 12 + 4 * 200)


def test_lambda_replay():
    costs = np.array([0.0, 2.0, 9.0, 1.0, 0.0, 3.0, 4.0])
    dones = np.array([False, True, False, True, False, False, True])
    assert checks.episode_cost_returns(costs, dones, first=2) == [10.0, 7.0]
    assert checks.episode_cost_returns(costs, dones[:-1].tolist() + [False], first=2) == [10.0]
    lam = 0.02
    for c in (10.0, 0.0, 0.0):
        lam = lam + 0.001 * (c - 5.0)
    assert checks.replay_lambda(0.02, 0.001, 5.0, [10.0, 0.0, 0.0]) == lam == pytest.approx(0.015)
    assert checks.replay_lambda(0.001, 0.001, 5.0, [0.0, 30.0]) == 0.001 * 25.0  # clamped to 0 first


def test_span_self_time_arithmetic():
    # root [0, 10] holds children [1, 3] and [4, 8]; the second holds [5, 6]
    parent = np.array([-1, 0, 0, 2, -1])
    start = np.array([0.0, 1.0, 4.0, 5.0, 11.0])
    end = np.array([10.0, 3.0, 8.0, 6.0, 12.0])
    np.testing.assert_allclose(self_times(parent, start, end), [4.0, 2.0, 3.0, 1.0, 1.0])
    assert uncovered_time(parent, start, end, 0.0, 13.0) == pytest.approx(2.0)


def test_tracer_records_nesting_and_restores_originals():
    box = types.SimpleNamespace()
    box.inner = lambda x: x + 1
    box.outer = lambda x: box.inner(x) * 2
    original = box.inner
    tracer = Tracer()
    tracer.install([(box, "outer", "outer"), (box, "inner", "inner")])
    assert box.outer(1) == 4
    tracer.uninstall()
    assert box.inner is original
    name, parent, start, end = tracer.arrays()
    assert [tracer.names[i] for i in name] == ["outer", "inner"]
    assert parent.tolist() == [-1, 0]
    assert start[0] <= start[1] <= end[1] <= end[0]


def test_checkpoint_reader_checks_framing(tmp_path):
    path = tmp_path / "x.ckpt"
    arrays = {"b": np.arange(3, dtype=np.uint8), "a": np.ones((2, 2))}
    save_checkpoint(path, {"k": 1}, arrays)
    meta, read = checks.read_checkpoint(path)
    assert meta == {"k": 1}
    np.testing.assert_array_equal(read["a"], arrays["a"])
    np.testing.assert_array_equal(read["b"], arrays["b"])
    data = bytearray(path.read_bytes())
    data[-40] ^= 1
    path.write_bytes(bytes(data))
    with pytest.raises(checks.CheckFailure):
        checks.read_checkpoint(path)


def test_model_gradcheck_on_a_small_model():
    rng = np.random.default_rng(0)
    mcfg = cb.LatentModelConfig(obs_shape=(3, 8, 8), action_dim=2, z1_dim=3, z2_dim=4, feature_dim=5,
                                hidden_dim=6, conv_channels=(2, 3), encoder="conv")
    model = cb.LatentModel(mcfg, rng)
    b, length = 2, 3
    batch = cb.SequenceBatch(rng.uniform(size=(b, length + 1, 3, 8, 8)), rng.uniform(-1, 1, (b, length, 2)),
                             rng.normal(size=(b, length)), np.zeros((b, length)), np.zeros((b, length), bool))
    noise = (rng.standard_normal((b, length + 1, 3)), rng.standard_normal((b, length + 1, 4)))
    assert checks.model_gradcheck(model, batch, noise, cb.backward) < 1e-6


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == ["desk_train", "full_train", "verify_suites"]
