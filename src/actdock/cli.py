"""Command-line pipeline: demos -> train -> eval, plus stats, heatmap, inspect.

Exit codes: 0 success, 1 validation/data errors or diverged training (message on
stderr), 2 usage.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import dataio, stats
from .config import (
    ConfigError,
    checkpoint_section,
    default_run_config,
    load_run_config,
    section_dict,
)
from .dynamics import InitMode
from .evaluate import ActController, heatmap, run_episodes, terminal_report, smoothness
from .expert import ExpertController, generate_demos
from .render import render
from .training import TrainingError, load_policy, train

REPORT_FORMAT_VERSION = 1


def _load_config(args):
    if getattr(args, "config", None):
        return load_run_config(args.config)
    return default_run_config()


def _mode(args, cfg) -> InitMode:
    name = args.mode if args.mode is not None else cfg.eval.mode
    return InitMode(name)


def _seed(args, cfg) -> int:
    return args.seed if args.seed is not None else cfg.seed


def _cmd_demos(args) -> int:
    cfg = _load_config(args)
    mode = _mode(args, cfg)
    seed = _seed(args, cfg)
    if args.chatter:
        cfg.expert.chatter_enabled = True
    episodes = generate_demos(args.n, mode, seed, cfg.expert, cfg.sim)
    dataio.write_episodes(args.out, episodes)
    total = sum(ep.steps for ep in episodes)
    print(f"wrote {len(episodes)} episodes ({total} steps) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    if args.iterations is not None:
        cfg.train.iterations = args.iterations
    if args.seed is not None:
        cfg.train.seed = args.seed
    demos = dataio.read_episodes(args.demos)
    meta_extra = {
        "sim": section_dict(cfg.sim),
        "camera": section_dict(cfg.camera),
        "marker": section_dict(cfg.marker),
        "ensemble_decay": cfg.eval.ensemble_decay,
    }
    # train() raises TrainingError on the first non-finite value; numpy's own
    # overflow warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _, curve = train(
            demos,
            cfg.policy,
            cfg.train,
            cfg.camera,
            cfg.marker,
            curve_path=args.curve,
            checkpoint_path=args.out,
            meta_extra=meta_extra,
        )
    print(f"trained {cfg.train.iterations} iterations "
          f"(final total loss {curve[-1][3]:.6f}); checkpoint at {args.out}")
    return 0


def _controller_for(args, cfg):
    if args.policy == "act":
        if not args.checkpoint:
            raise ConfigError("--checkpoint is required for --policy act")
        params, policy_cfg, meta = load_policy(args.checkpoint)
        decay = meta.get("ensemble_decay", cfg.eval.ensemble_decay)
        sim, cam, marker = (
            checkpoint_section(args.checkpoint, meta, key, type(getattr(cfg, key)))
            if key in meta else getattr(cfg, key)
            for key in ("sim", "camera", "marker")
        )
        return ActController(params, policy_cfg, decay=decay), sim, cam, marker
    chatter = args.policy == "chatter"
    return (ExpertController(cfg.expert, cfg.sim, chatter=chatter),
            cfg.sim, cfg.camera, cfg.marker)


def _cmd_eval(args) -> int:
    cfg = _load_config(args)
    mode = _mode(args, cfg)
    seed = _seed(args, cfg)
    n = args.n if args.n is not None else cfg.eval.n_episodes
    controller, sim, cam, marker = _controller_for(args, cfg)
    episodes = run_episodes(controller, n, mode, seed, sim, cam, marker)
    report = terminal_report(episodes, cfg.eval.success_radii)
    doc = {
        "format_version": REPORT_FORMAT_VERSION,
        "kind": "eval_report",
        "mode": mode.value,
        "seed": seed,
        "report": report.as_dict(),
    }
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
    if args.episodes_out:
        dataio.write_episodes(args.episodes_out, episodes)
    if args.smoothness_csv:
        dataio.write_column(args.smoothness_csv,
                            [smoothness(ep) for ep in episodes if ep.steps >= 2])
    print(f"{report.policy}: n={report.n_episodes} failed={report.n_failed} "
          f"mean r_K={report.r_k_mean:.3f} m mean v_K={report.v_k_mean:.3f} m/s "
          f"smoothness={report.smoothness_mean:.3f}")
    return 0


def _cmd_stats(args) -> int:
    a = dataio.read_column(args.a)
    b = dataio.read_column(args.b)
    doc = {
        "format_version": REPORT_FORMAT_VERSION,
        "kind": "stats_report",
        "n_a": int(a.size),
        "n_b": int(b.size),
        "welch": stats.welch(a, b).as_dict(),
        "shapiro_a": stats.shapiro_wilk(a).as_dict(),
        "shapiro_b": stats.shapiro_wilk(b).as_dict(),
        "levene": stats.levene(a, b).as_dict(),
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    else:
        print(text)
    if args.qq_a:
        np.savetxt(args.qq_a, stats.qq_points(a), delimiter=",",
                   header="theoretical,sample", comments="")
    if args.qq_b:
        np.savetxt(args.qq_b, stats.qq_points(b), delimiter=",",
                   header="theoretical,sample", comments="")
    w = doc["welch"]
    print(f"welch t={w['statistic']:.3f} df={w['df']:.1f} p={w['p']:.3g}",
          file=sys.stderr)
    return 0


def _cmd_heatmap(args) -> int:
    cfg = _load_config(args)
    episodes = dataio.read_episodes(args.episodes)
    grid = heatmap(episodes, args.plane, cfg.grid)
    dataio.write_heatmap_csv(args.out, grid)
    print(f"wrote {grid.shape[0]}x{grid.shape[1]} grid "
          f"({int(grid.sum())} samples) to {args.out}")
    return 0


def _cmd_inspect(args) -> int:
    cfg = _load_config(args)
    episodes = dataio.read_episodes(args.episodes)
    matches = [ep for ep in episodes if ep.episode_id == args.episode]
    if not matches:
        raise ConfigError(f"no episode with id {args.episode} in {args.episodes}")
    ep = matches[0]
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for t, rec in enumerate(ep.records):
        img = render(rec.state, cfg.camera, cfg.marker)
        dataio.save_pgm(outdir / f"step_{t:03d}.pgm", img)
    print(f"wrote {ep.steps} frames to {outdir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="actdock",
        description="Desk-scale imitation-learned spacecraft docking pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demos", help="generate scripted-expert demonstrations")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--mode", choices=["same", "random"], default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--chatter", action="store_true",
                   help="overlay the sign-alternating chatter baseline")
    p.set_defaults(func=_cmd_demos)

    p = sub.add_parser("train", help="behavioral-clone a chunk policy from demos")
    p.add_argument("--demos", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--curve", default=None, help="loss-curve CSV path")
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="closed-loop evaluation episodes")
    p.add_argument("--policy", choices=["act", "expert", "chatter"], default="act")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--mode", choices=["same", "random"], default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--report", default=None, help="report JSON path")
    p.add_argument("--episodes-out", default=None, help="episode NDJSON path")
    p.add_argument("--smoothness-csv", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("stats", help="two-sample hypothesis-test battery")
    p.add_argument("--a", required=True, help="first sample CSV (one value per line)")
    p.add_argument("--b", required=True, help="second sample CSV")
    p.add_argument("--out", default=None, help="report JSON path (default stdout)")
    p.add_argument("--qq-a", default=None, help="Q-Q points CSV for sample a")
    p.add_argument("--qq-b", default=None, help="Q-Q points CSV for sample b")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("heatmap", help="position visit counts over a plane")
    p.add_argument("--episodes", required=True)
    p.add_argument("--plane", choices=["xy", "zy"], default="xy")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_heatmap)

    p = sub.add_parser("inspect", help="dump one episode's re-rendered frames as PGM")
    p.add_argument("--episodes", required=True)
    p.add_argument("--episode", type=int, default=0)
    p.add_argument("--outdir", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, dataio.ParseError, ValueError, TrainingError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except FileNotFoundError as err:
        print(f"error: {err.filename}: no such file", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
