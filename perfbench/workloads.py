"""The three benchmark workloads.

Each workload drives ``costbound`` through its public entry points only:
``load_config``, ``Trainer(...)``, ``Trainer.run``, ``Trainer.evaluate``,
``Trainer.save``, ``Trainer.restore``, ``run_gradient_suite`` and
``run_tabular_suite``. Its timed part is a sequence of identical rounds;
work that runs once per process (first calls, buffer warmup) happens before
the first round, and the checks after the last.
"""

from __future__ import annotations

import copy
import os
import resource
import time
from pathlib import Path

import numpy as np

import costbound as cb
from costbound import verify

import checks
from checks import CheckFailure, require

DESK_EPISODE = 100  # agent decisions per desk.cfg episode
FULL_EPISODE = 500  # agent decisions per full.cfg episode


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def tape_nodes(root) -> int:
    """Number of tensors reachable from ``root`` through the autodiff graph."""
    seen, stack = {id(root)}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Workload:
    name = ""
    grad_steps_per_round = 0
    min_rounds = 1

    def __init__(self, root: Path, seed: int, work_dir: Path):
        self.root = root
        self.seed = seed
        self.work_dir = work_dir
        self.tape_nodes_model = 0
        self.file_mb = 0.0

    def config(self, name: str, **overrides):
        return cb.load_config(self.root / "configs" / name, overrides={"seed": self.seed, **overrides})

    def setup(self):
        """What ``setup_s`` times, after the imports."""

    def warm_up(self):
        """Untimed first calls, so that they stay out of the rounds."""

    def round(self) -> dict:
        """One round of timed work; returns its phase timings and ``wall``."""
        raise NotImplementedError

    def check(self, rounds):
        """Raise ``CheckFailure`` unless the program's outputs are right."""

    def throughput(self, rounds) -> float:
        raise NotImplementedError

    def phase_metrics(self, rounds) -> dict:
        """Per-phase rates, from the untraced rounds of a traced run."""
        return {}

    def finish_traced(self):
        """Extra untimed work a traced run needs for ``phase_metrics``."""

    def save_rss_delta_mb(self, rounds) -> float:
        return 0.0

    def trainer_checks(self, trainer, restored, cfg, first_main_record: int, evaluate: bool):
        """Checkpoint framing, step counts, metrics file, dual ascent,
        gradients, restore, rendering and (if ``evaluate``) evaluation of a
        trained run; ``restored`` was restored from its final checkpoint."""
        meta, arrays = checks.read_checkpoint(trainer.final_checkpoint_path)
        self.file_mb = trainer.final_checkpoint_path.stat().st_size / 2**20
        plan = checks.schedule(cfg)
        require(meta["env_step"] == plan.end_env_step, f"env_step {meta['env_step']} != {plan.end_env_step}")
        expected = {"model": plan.model_only_steps + plan.grad_steps}
        expected.update({name: plan.grad_steps for name in ("actor", "q1", "q2", "qc", "alpha")})
        require(meta["opt_steps"] == expected, f"optimizer steps {meta['opt_steps']} != {expected}")

        header, *rows = (trainer.out_dir / "metrics.csv").read_text().splitlines()
        loss_columns = [i for i, name in enumerate(header.split(",")) if name.endswith("_loss")]
        require(len(loss_columns) == 5, f"metrics.csv has loss columns {header}")
        require(len(rows) == plan.evaluations, f"{len(rows)} metrics rows != {plan.evaluations}")
        for row in rows:
            values = row.split(",")
            require(all(np.isfinite(float(values[i])) for i in loss_columns), f"non-finite loss in {row}")

        costs = checks.episode_cost_returns(arrays["buffer/cost"], arrays["buffer/done"], first_main_record)
        lam = checks.replay_lambda(cfg.init_lambda, cfg.lambda_lr, cfg.cost_budget, costs)
        require(meta["lagrange_lam"] == lam, f"lambda {meta['lagrange_lam']!r} != replayed {lam!r}")

        rng = np.random.default_rng(self.seed)
        length = cfg.sequence_length
        obs, act, rew, cost, done = checks.sample_windows(
            arrays["buffer/obs"], arrays["buffer/act"], arrays["buffer/rew"], arrays["buffer/cost"],
            arrays["buffer/done"], meta["buffer_meta"]["lengths"], batch=2, length=length, rng=rng,
        )
        batch = cb.SequenceBatch(obs, act, rew, cost, done)
        mcfg = trainer.model.cfg
        noise = (rng.standard_normal((2, length + 1, mcfg.z1_dim)), rng.standard_normal((2, length + 1, mcfg.z2_dim)))
        err = checks.model_gradcheck(trainer.model, batch, noise, cb.backward)
        require(err <= checks.GRADCHECK_TOLERANCE, f"model_loss gradient rel err {err:.3e} > 1e-4")
        self.tape_nodes_model = tape_nodes(trainer.model.model_loss(batch, noise)[0])

        for name in ("model", "actor", "q1", "q2", "qc", "q1_target", "q2_target", "qc_target"):
            pairs = zip(getattr(trainer, name).parameters(), getattr(restored, name).parameters())
            require(all(same_bits(a.data, b.data) for a, b in pairs), f"restored {name} parameters differ")
        require(same_bits(trainer.temperature.log_alpha.data, restored.temperature.log_alpha.data),
                "restored log_alpha differs")
        optimizers = lambda t: [t.opt_model, t.opt_actor, t.opt_q1, t.opt_q2, t.opt_qc, t.temperature.optimizer]
        for name, a, b in zip(("model", "actor", "q1", "q2", "qc", "alpha"), optimizers(trainer), optimizers(restored)):
            require(a.step_count == b.step_count, f"restored {name} step count differs")
            pairs = zip(a.state_arrays(), b.state_arrays())
            require(all(same_bits(x, y) for x, y in pairs), f"restored {name} moments differ")
        _, saved_buffer = trainer.buffer.state()
        _, restored_buffer = restored.buffer.state()
        for key, value in saved_buffer.items():
            require(same_bits(value, restored_buffer[key]), f"restored buffer {key} differs")
            require(same_bits(value, arrays[f"buffer/{key}"]), f"checkpoint buffer {key} differs")

        world = cb.build_env(cfg, self.seed).env
        for _ in range(64):
            for _ in range(int(rng.integers(1, 40))):
                if world.get_state()["done"]:
                    world.reset(seed=int(rng.integers(2**31)))
                world.step(rng.uniform(-1.0, 1.0, size=2))
            expected = checks.rasterize(world.get_state(), world.cfg)
            require(np.array_equal(world.render_uint8(), expected), "render_uint8 disagrees with the rasterizer")

        if evaluate:
            saved_result, restored_result = trainer.evaluate(episodes=1), restored.evaluate(episodes=1)
            require(saved_result == restored_result, f"evaluate {saved_result} != restored {restored_result}")
            cost, limit = saved_result[1], cfg.episode_limit * cfg.action_repeat
            require(cost == int(cost) and 0 <= cost <= limit, f"evaluation cost {cost} is not a step count")


class DeskTrain(Workload):
    """desk.cfg with a short warmup, then main-phase rounds.

    A round is ``DECISIONS`` main-phase decisions through ``Trainer.run``
    (one gradient step each, one periodic evaluation of two episodes and the
    final checkpoint write that ``run`` ends with), then a separate
    ``evaluate`` of ``EVAL_EPISODES`` episodes.
    """

    name = "desk_train"
    WARMUP, MODEL_ONLY, DECISIONS, EVAL_EPISODES = 1000, 30, 25, 4
    grad_steps_per_round = DECISIONS
    round_ops = DECISIONS + 2 * DECISIONS + 2 + EVAL_EPISODES + 1

    def setup(self):
        self.cfg = self.config(
            "desk.cfg", warmup_transitions=self.WARMUP, warmup_model_steps=self.MODEL_ONLY,
            eval_interval=2 * self.DECISIONS, eval_episodes=2, checkpoint_interval=0,
            total_env_steps=2 * self.WARMUP,
        )
        self.trainer = cb.Trainer(self.cfg, self.work_dir / "main")

    def warm_up(self):
        cfg = copy.deepcopy(self.cfg)
        cfg.warmup_transitions, cfg.warmup_model_steps, cfg.total_env_steps = 20, 2, 44
        scratch = cb.Trainer(cfg, self.work_dir / "warm")
        scratch.run()
        scratch.evaluate(episodes=1)
        self.collect_s, _ = timed(self.trainer.run)
        self.cfg.total_env_steps += 2
        self.model_phase_s, _ = timed(self.trainer.run)

    def round(self):
        self.cfg.total_env_steps += 2 * self.DECISIONS
        run_s, _ = timed(self.trainer.run)
        eval_s, _ = timed(self.trainer.evaluate, episodes=self.EVAL_EPISODES)
        return {"run": run_s, "eval": eval_s, "wall": run_s + eval_s}

    def throughput(self, rounds):
        return self.DECISIONS / median([r["run"] for r in rounds])

    def check(self, rounds):
        restored = cb.Trainer.restore(self.trainer.final_checkpoint_path, self.work_dir / "restored")
        self.trainer_checks(self.trainer, restored, self.cfg, first_main_record=self.WARMUP, evaluate=True)

    def finish_traced(self):
        self.save_s = median([timed(self.trainer.save, self.work_dir / "timing.ckpt")[0] for _ in range(5)])

    def phase_metrics(self, rounds):
        # every Trainer.run call ends with a checkpoint write, taken out here
        run_s = median([r["run"] for r in rounds]) - self.save_s
        eval_decision_s = median([r["eval"] for r in rounds]) / (self.EVAL_EPISODES * DESK_EPISODE)
        decision_s = (run_s - 2 * DESK_EPISODE * eval_decision_s) / self.DECISIONS
        collect_s = self.collect_s - self.save_s
        hours = checks.projected_hours(
            checks.schedule(cb.load_config(self.root / "configs" / "desk.cfg")),
            collect_s=collect_s / self.WARMUP,
            model_only_s=(self.model_phase_s - self.save_s - decision_s) / self.MODEL_ONLY,
            decision_s=decision_s,
            eval_decision_s=eval_decision_s,
        )
        return {
            "grad_steps_per_s": 1.0 / decision_s,
            "projected_run_h": hours,
            "collect_steps_per_s": 2 * self.WARMUP / collect_s,
            "eval_steps_per_s": 1.0 / eval_decision_s,
            "checkpoint_save_s": self.save_s,
        }


class FullTrain(Workload):
    """full.cfg shapes and batches with one stored episode of warmup, then
    rounds of one main-phase decision through ``Trainer.run`` (two gradient
    steps and the final checkpoint write) and a ``Trainer.restore`` of the
    checkpoint that call wrote."""

    name = "full_train"
    grad_steps_per_round = 2
    min_rounds = 2  # a round is ~15 s, and one alone repeats poorly
    round_ops = 2 + 2 + 1 + 1

    def setup(self):
        self.cfg = self.config(
            "full.cfg", warmup_transitions=FULL_EPISODE, warmup_model_steps=0, checkpoint_interval=0,
            total_env_steps=2 * FULL_EPISODE,
        )
        self.trainer = cb.Trainer(self.cfg, self.work_dir / "main")
        self.restored = None

    def warm_up(self):
        self.collect_s, _ = timed(self.trainer.run)
        # before any training, so that the peak it is read against is the
        # previous write of the same checkpoint
        path, rss_before = self.work_dir / "timing.ckpt", current_rss_mb()
        self.save_s, _ = timed(self.trainer.save, path)
        self.rss_delta = peak_rss_mb() - rss_before
        path.unlink()
        # the same code paths at full shapes with batches of two, so first
        # calls cost seconds instead of a whole gradient step
        cfg = copy.deepcopy(self.cfg)
        cfg.model_batch, cfg.ac_batch = 2, 2
        cfg.warmup_transitions, cfg.warmup_model_steps, cfg.total_env_steps = 12, 1, 26
        cb.Trainer(cfg, self.work_dir / "warm").run()

    def round(self):
        self.restored = None
        self.cfg.total_env_steps += 2
        run_s, _ = timed(self.trainer.run)
        load_s, self.restored = timed(
            cb.Trainer.restore, self.trainer.final_checkpoint_path, self.work_dir / "restored"
        )
        return {"run": run_s, "load": load_s, "wall": run_s + load_s}

    def throughput(self, rounds):
        return 2 / median([r["run"] for r in rounds])

    def check(self, rounds):
        self.trainer_checks(self.trainer, self.restored, self.cfg, first_main_record=FULL_EPISODE, evaluate=False)

    def save_rss_delta_mb(self, rounds):
        return self.rss_delta

    def finish_traced(self):
        self.eval_s, _ = timed(self.trainer.evaluate, episodes=1)

    def phase_metrics(self, rounds):
        # every Trainer.run call ends with a checkpoint write, taken out here
        decision_s = median([r["run"] for r in rounds]) - self.save_s
        collect_s = self.collect_s - self.save_s
        hours = checks.projected_hours(
            checks.schedule(cb.load_config(self.root / "configs" / "full.cfg")),
            collect_s=collect_s / FULL_EPISODE,
            # an upper bound: a whole gradient step, of which the model-only
            # update is the larger part
            model_only_s=decision_s / 2,
            decision_s=decision_s,
            eval_decision_s=self.eval_s / FULL_EPISODE,
        )
        return {
            "grad_steps_per_s": 2 / decision_s,
            "projected_run_h": hours,
            "collect_steps_per_s": 2 * FULL_EPISODE / collect_s,
            "eval_steps_per_s": FULL_EPISODE / self.eval_s,
            "checkpoint_save_s": self.save_s,
            "checkpoint_load_s": median([r["load"] for r in rounds]),
        }


class VerifySuites(Workload):
    """The ``gradcheck`` and ``oracle`` suites as the CLI runs them: a round
    is ``run_gradient_suite(seed)`` then ``run_tabular_suite(seed)``."""

    name = "verify_suites"
    GRADIENT_ENTRIES, TABULAR_ENTRIES = 5, 3
    round_ops = GRADIENT_ENTRIES + TABULAR_ENTRIES

    def warm_up(self):
        verify.run_gradient_suite(seed=self.seed)

    def round(self):
        gradient_s, self.gradient = timed(verify.run_gradient_suite, seed=self.seed)
        tabular_s, self.tabular = timed(verify.run_tabular_suite, seed=self.seed)
        return {"gradient": gradient_s, "tabular": tabular_s, "wall": gradient_s + tabular_s}

    def throughput(self, rounds):
        return self.round_ops / median([r["wall"] for r in rounds])

    def check(self, rounds):
        errors = {k: v for k, v in self.gradient.items() if k != "elapsed_seconds"}
        require(len(errors) == self.GRADIENT_ENTRIES, f"gradient suite entries {sorted(errors)}")
        worst = max(errors.values())
        require(worst <= checks.GRADCHECK_TOLERANCE, f"gradcheck max rel err {worst:.3e} > 1e-4")
        require(len(self.tabular) == self.TABULAR_ENTRIES, f"tabular suite entries {sorted(self.tabular)}")
        failed = [name for name, (_, _, ok) in self.tabular.items() if not ok]
        require(not failed, f"tabular suite entries failed: {failed}")
        value = self.tabular["absorbing_geometric"][0]
        closed_form = 1.0 / (1.0 - 0.995)
        require(abs(value - closed_form) <= 1e-6, f"absorbing value {value!r} != {closed_form!r}")


WORKLOADS = {w.name: w for w in (DeskTrain, FullTrain, VerifySuites)}
