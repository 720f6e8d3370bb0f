"""Benchmark of the costbound trainer: one workload per run.

    python3 perfbench/run.py --blas-threads 1 --workload desk_train --seed 1 --seconds 15 --trace 0

Run from the root of a source tree that holds ``src/costbound`` and
``configs/``. The run repeats the workload's round until ``--seconds`` have
passed (at least the workload's ``min_rounds``, and one more with
``--trace 1``, whose rounds alternate untraced and traced), checks the program's outputs, and prints one JSON
object as its last line: ``correct``, ``attempted``, ``failed`` and the
metrics, end-to-end ones with ``--trace 0`` and per-layer ones with
``--trace 1``. See README.md for what each workload and metric measures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (span name, scale from seconds); each is the median
# self time per call of that span in the traced rounds
SPAN_METRICS = {
    "latent.infer_posterior_ms": ("latent.infer_posterior", 1e3),
    "latent.model_loss_ms": ("latent.model_loss", 1e3),
    "latent.filter_step_ms": ("latent.filter_step", 1e3),
    "latent.filter_init_ms": ("latent.filter_init", 1e3),
    "autodiff.backward_ms": ("autodiff.backward", 1e3),
    "autodiff.conv2d_ms": ("autodiff.conv2d", 1e3),
    "autodiff.conv2d_transpose_ms": ("autodiff.conv2d_transpose", 1e3),
    "nn.encoder_ms": ("nn.encoder", 1e3),
    "nn.decoder_ms": ("nn.decoder", 1e3),
    "optim.clip_ms": ("optim.clip", 1e3),
    "optim.adam_ms": ("optim.adam", 1e3),
    "optim.ema_ms": ("optim.ema", 1e3),
    "agent.reward_critic_ms": ("agent.reward_critic", 1e3),
    "agent.safety_critic_ms": ("agent.safety_critic", 1e3),
    "agent.policy_ms": ("agent.policy", 1e3),
    "agent.temperature_ms": ("agent.temperature", 1e3),
    "replay.sample_ms": ("replay.sample", 1e3),
    "replay.num_windows_ms": ("replay.num_windows", 1e3),
    "replay.append_us": ("replay.append", 1e6),
    "replay.state_ms": ("replay.state", 1e3),
    "replay.load_state_ms": ("replay.load_state", 1e3),
    "envs.hazard_step_us": ("envs.hazard_step", 1e6),
    "envs.render_us": ("envs.render", 1e6),
    "envs.chain_step_us": ("envs.chain_step", 1e6),
    "checkpoint.save_ms": ("checkpoint.save", 1e3),
    "checkpoint.load_ms": ("checkpoint.load", 1e3),
    "trainer.save_self_ms": ("trainer.save", 1e3),
    "trainer.restore_self_ms": ("trainer.restore", 1e3),
    "trainer.run_self_ms": ("trainer.run", 1e3),
    "oracle.mc_return_s": ("oracle.mc_return", 1.0),
    "oracle.value_iteration_ms": ("oracle.value_iteration", 1e3),
    "verify.fitted_critic_s": ("verify.fitted_critic", 1.0),
    "verify.gradient_suite_s": ("verify.gradient_suite", 1.0),
}

# per-layer metric -> unit, for the metrics that are not span self times
OTHER_LAYER_METRICS = {
    "autodiff.backward_calls_per_step": "count",
    "autodiff.tape_nodes_model": "count",
    "replay.num_windows_calls_per_step": "count",
    "checkpoint.file_mb": "MB",
    "checkpoint.save_rss_delta_mb": "MB",
    "grad_steps_per_s": "1/s",
    "projected_run_h": "h",
    "collect_steps_per_s": "1/s",
    "eval_steps_per_s": "1/s",
    "checkpoint_save_s": "s",
    "checkpoint_load_s": "s",
    "trace.overhead_pct": "%",
    "trace.uncovered_pct": "%",
}


def span_unit(scale: float) -> str:
    return {1.0: "s", 1e3: "ms", 1e6: "us"}[scale]


def per_layer_units() -> dict:
    units = {name: span_unit(scale) for name, (_, scale) in SPAN_METRICS.items()}
    units.update(OTHER_LAYER_METRICS)
    return units


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=1)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import ``costbound`` from this tree's ``src`` and nowhere else."""
    package = ROOT / "src" / "costbound"
    missing = [p for p in (package / "__init__.py", ROOT / "configs" / "desk.cfg", ROOT / "configs" / "full.cfg")
               if not p.is_file()]
    if missing:
        sys.exit(f"perfbench: {', '.join(map(str, missing))} not found; run from a costbound source tree")
    sys.path.insert(0, str(ROOT / "src"))
    import costbound

    if Path(costbound.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported costbound from {costbound.__file__}, not {package}")


def setup_probe(args, work_dir: Path):
    """Child process: import, set the workload up, say so, and exit."""
    import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](ROOT, args.seed, work_dir)
    workload.setup()
    print("ready", flush=True)


def measure_setup(args, run_dir: Path) -> float:
    """Median seconds from process start to a set-up workload, over fresh processes."""
    times = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed), "--blas-threads", str(args.blas_threads)]
        env = dict(os.environ, PERFBENCH_WORK_DIR=str(run_dir / f"probe{i}"))
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - start)
            child.stdout.read()
            code = child.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
    times.sort()
    return times[len(times) // 2]


def machine_line(blas_threads: int) -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"# machine: nproc={os.cpu_count()} blas={blas.get('name')} {blas.get('version')} "
            f"threads={blas_threads} numpy={np.__version__} python={sys.version.split()[0]}")


def layer_metrics(workload, tracer, rounds, windows) -> dict:
    import numpy as np

    from tracer import self_times, uncovered_time

    name, parent, start, end = tracer.arrays()
    selfs = self_times(parent, start, end)
    in_rounds = np.zeros(len(start), dtype=bool)
    for t0, t1 in windows:
        in_rounds |= (start >= t0) & (end <= t1)
    index = {n: i for i, n in enumerate(tracer.names)}

    def calls(span):
        return in_rounds & (name == index.get(span, -1))

    out = {}
    for metric, (span, scale) in SPAN_METRICS.items():
        mask = calls(span)
        out[metric] = float(np.median(selfs[mask])) * scale if mask.any() else 0.0

    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    grad_steps = workload.grad_steps_per_round * len(traced)
    per_step = lambda span: int(calls(span).sum()) / grad_steps if grad_steps else 0.0
    out["autodiff.backward_calls_per_step"] = per_step("autodiff.backward")
    out["replay.num_windows_calls_per_step"] = per_step("replay.num_windows")
    out["autodiff.tape_nodes_model"] = workload.tape_nodes_model
    out["checkpoint.file_mb"] = workload.file_mb
    out["checkpoint.save_rss_delta_mb"] = workload.save_rss_delta_mb(rounds)
    phases = workload.phase_metrics(untraced)
    for metric in ("grad_steps_per_s", "projected_run_h", "collect_steps_per_s", "eval_steps_per_s",
                   "checkpoint_save_s", "checkpoint_load_s"):
        out[metric] = phases.get(metric, 0.0)
    traced_wall = np.median([r["wall"] for r in traced])
    out["trace.overhead_pct"] = 100.0 * (traced_wall / np.median([r["wall"] for r in untraced]) - 1.0)
    out["trace.uncovered_pct"] = 100.0 * float(
        np.median([uncovered_time(parent, start, end, t0, t1) / (t1 - t0) for t0, t1 in windows])
    )
    return out


def run(args) -> int:
    import_program()
    from tracer import Tracer, span_targets
    from workloads import WORKLOADS, CheckFailure, median, peak_rss_mb

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    run_dir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        setup_s = None if args.trace else measure_setup(args, run_dir)
        workload = WORKLOADS[args.workload](ROOT, args.seed, run_dir)
        workload.setup()
        workload.warm_up()

        tracer = Tracer() if args.trace else None
        targets = span_targets() if args.trace else None
        rounds, windows, failed_rounds = [], [], 0
        began = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            if traced:
                tracer.install(targets)
            t0 = time.perf_counter()
            try:
                result = workload.round()
            except Exception:
                traceback.print_exc()
                failed_rounds += 1
                break
            finally:
                t1 = time.perf_counter()
                if traced:
                    tracer.uninstall()
            result["traced"] = traced
            rounds.append(result)
            if traced:
                windows.append((t0, t1))
            if time.perf_counter() - began >= args.seconds and len(rounds) >= workload.min_rounds + args.trace:
                break

        peak_mb = peak_rss_mb()
        correct = bool(rounds) and not failed_rounds
        if correct:
            try:
                workload.check(rounds)
            except CheckFailure as err:
                print(f"perfbench: check failed: {err}", file=sys.stderr)
                correct = False

        metrics = {}
        if rounds and not args.trace:
            values = {
                "setup_s": setup_s,
                "wall_s": median([r["wall"] for r in rounds]),
                "throughput_per_s": workload.throughput(rounds),
                "peak_rss_mb": peak_mb,
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        elif len(rounds) >= 2:
            workload.finish_traced()
            (ROOT / ".perfbench").mkdir(exist_ok=True)
            tracer.write(ROOT / ".perfbench" / f"trace-{args.workload}.npz")
            units = per_layer_units()
            values = layer_metrics(workload, tracer, rounds, windows)
            metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(machine_line(args.blas_threads))
    print(f"# {args.workload} seed={args.seed} rounds={len(rounds)} failed_rounds={failed_rounds}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    ops = workload.round_ops
    print(json.dumps({
        "correct": correct,
        "attempted": ops * (len(rounds) + failed_rounds),
        "failed": ops * failed_rounds,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = str(args.blas_threads)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    if args.setup_probe:
        work_dir = Path(os.environ["PERFBENCH_WORK_DIR"])
        try:
            setup_probe(args, work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
