#!/usr/bin/env python3
"""actdock benchmark: one named workload in one process.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ./src. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, the per-layer metrics with `--trace 1`. Exit code 0 when every
check passed, 1 when one failed, 2 when the program cannot be imported.
See perfbench/README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"
# One BLAS thread: the policy's GEMMs are small, and on a 2-core box a second
# thread made a training iteration slower and its timing noisier.
BLAS_THREADS = 1

# per-layer metric -> span whose self time, in ms per step, it reports
SELF_MS_PER_STEP = {
    "tensor.backward_ms": "tensor.backward",
    "tensor.adam_step_ms": "tensor.adam_step",
    "policy.embed_observation_ms": "policy.embed_observation",
    "policy.encode_style_ms": "policy.encode_style",
    "policy.predict_chunk_ms": "policy.predict_chunk",
    "policy.infer_chunk_ms": "policy.infer_chunk",
    "training.chunk_targets_ms": "training.chunk_targets",
    "training.bc_loss_ms": "training.bc_loss",
    "training.loop_self_ms": "training.train",
    "render.render_ms": "render.render",
    "ensemble.push_ms": "ensemble.push",
    "ensemble.ensemble_ms": "ensemble.ensemble",
    "dynamics.step_ms": "dynamics.step",
    "expert.expert_action_ms": "expert.expert_action",
    "evaluate.rollout_self_ms": "evaluate.rollout",
    "evaluate.terminal_report_ms": "evaluate.terminal_report",
    "dataio.write_episodes_ms": "dataio.write_episodes",
    "dataio.read_episodes_ms": "dataio.read_episodes",
}
# per-layer metric -> span whose mean time per call, over the whole run, it reports
MS_PER_CALL = {
    "tensor.save_ms": "tensor.save",
    "tensor.load_ms": "tensor.load",
}


def process_age_s() -> float:
    """Seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat", encoding="ascii") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22, starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def blas_info(np) -> dict:
    """numpy and OpenBLAS versions and the thread count OpenBLAS reports."""
    import ctypes

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def install_spans(tracer, patches) -> None:
    from actdock import dataio, evaluate, expert, training
    from actdock.tensor import ParameterSet, Tensor

    for owner, attr, name in (
        (Tensor, "backward", "tensor.backward"),
        (ParameterSet, "adam_step", "tensor.adam_step"),
        (ParameterSet, "save", "tensor.save"),
        (ParameterSet, "load", "tensor.load"),
        (training, "init_params", "policy.init_params"),
        (training, "embed_observation", "policy.embed_observation"),
        (training, "encode_style", "policy.encode_style"),
        (training, "predict_chunk", "policy.predict_chunk"),
        (evaluate, "infer_chunk", "policy.infer_chunk"),
        (training, "train", "training.train"),
        (training.DemoDataset, "chunk_targets", "training.chunk_targets"),
        (training, "bc_loss", "training.bc_loss"),
        (training, "load_policy", "training.load_policy"),
        (training, "render", "render.render"),
        (evaluate, "render", "render.render"),
        (evaluate, "push", "ensemble.push"),
        (evaluate, "ensemble", "ensemble.ensemble"),
        (evaluate, "step", "dynamics.step"),
        (expert, "expert_action", "expert.expert_action"),
        (expert, "generate_demos", "expert.generate_demos"),
        (expert, "rollout", "evaluate.rollout"),
        (evaluate, "rollout", "evaluate.rollout"),
        (evaluate, "run_episodes", "evaluate.run_episodes"),
        (evaluate, "terminal_report", "evaluate.terminal_report"),
        (dataio, "write_episodes", "dataio.write_episodes"),
        (dataio, "read_episodes", "dataio.read_episodes"),
    ):
        patches.wrap(owner, attr, tracer.wrapper(name))


def per_layer_metrics(workload, tracer, setup_end: int, steps: int, seconds: float,
                      graph: tuple[int, int]) -> dict:
    measured = tracer.summary(setup_end)
    whole = tracer.summary()
    metrics = {}
    for metric, span in SELF_MS_PER_STEP.items():
        metrics[metric] = (measured.get(span, [0, 0, 0])[2] / 1e6 / steps, "ms")
    for metric, span in MS_PER_CALL.items():
        calls, total, _ = whole.get(span, [0, 0, 0])
        metrics[metric] = (total / 1e6 / calls if calls else 0.0, "ms")
    metrics["render.calls"] = (measured.get("render.render", [0])[0] / steps, "count")
    nodes, closures = graph
    metrics["tensor.graph_nodes"] = (nodes, "count")
    metrics["tensor.backward_closures"] = (closures, "count")
    metrics["dataio.episode_bytes"] = (workload.episode_bytes(), "B")
    metrics["trace.step_wall_ms"] = (seconds * 1e3 / steps, "ms")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train", "closed_loop", "demos"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)  # must precede numpy's import
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import actdock
    except ImportError as err:
        print(f"perfbench: cannot import actdock from {src}: {err}", file=sys.stderr)
        return 2
    if Path(actdock.__file__).resolve().parent != (src / "actdock").resolve():
        print(f"perfbench: actdock resolved to {actdock.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import numpy as np

    from checks import CheckFailed, check_counts
    from spans import Patches, Tracer
    from workloads import WORKLOADS

    env = blas_info(np)
    print("# perfbench " + json.dumps({"workload": args.workload, "seed": args.seed,
                                        "seconds": args.seconds, "trace": args.trace, **env}))
    WORKDIR.mkdir(exist_ok=True)
    run_dir = WORKDIR / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir()
    patches = Patches()
    tracer = Tracer()
    try:
        workload = WORKLOADS[args.workload](args.seed, run_dir)
        clock = workload.install_clock(patches)
        if args.trace:
            install_spans(tracer, patches)
        workload.setup()
        setup_s = process_age_s()
        setup_end = tracer.mark()
        clock.reset()

        rounds, attempted, failed, steps, spent = [], 0, 0, 0, 0.0
        outputs_ok, problem = True, ""
        index = 0
        while spent < args.seconds:
            tracer.active = True
            t0 = time.perf_counter()
            output, n_steps, n_attempted, n_failed = workload.run_round(index)
            elapsed = time.perf_counter() - t0
            tracer.active = False
            spent += elapsed
            rounds.append(n_steps / elapsed)
            steps += n_steps
            attempted += n_attempted
            failed += n_failed
            try:
                workload.check_round(index, output)
            except CheckFailed as err:
                if outputs_ok:
                    outputs_ok, problem = False, f"round {index}: {err}"
            index += 1
        measure_end = tracer.mark()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        step_ms = clock.step_ms()

        graph = (0, 0)
        try:
            workload.check_once()
            if args.trace:
                check_counts(tracer.summary(setup_end, measure_end), workload.expected_calls())
                graph = workload.graph_nodes()
        except CheckFailed as err:
            if outputs_ok:
                outputs_ok, problem = False, str(err)

        if args.trace:
            metrics = per_layer_metrics(workload, tracer, setup_end, steps, spent, graph)
            tracer.dump(WORKDIR / f"trace-{args.workload}-seed{args.seed}.json")
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "steps_per_s": (steps / spent, "1/s"),
                "step_ms_p50": (float(np.percentile(step_ms, 50)), "ms"),
                "step_ms_p90": (float(np.percentile(step_ms, 90)), "ms"),
            }
    finally:
        patches.restore()
        shutil.rmtree(run_dir, ignore_errors=True)

    if not outputs_ok:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(f"# {len(rounds)} rounds, {steps} steps, {len(step_ms)} step timings, "
          f"{spent:.2f} s measured; steps/s by round: "
          + " ".join(f"{rate:.4g}" for rate in rounds))
    print(json.dumps({
        "correct": outputs_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if outputs_ok else 1


if __name__ == "__main__":
    sys.exit(main())
