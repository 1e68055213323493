import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import actdock
from actdock import dataio
from actdock.cli import main
from actdock.tensor import ParameterSet
from actdock.training import load_policy

TINY_CONFIG = {
    "format_version": 1,
    "seed": 0,
    "sim": {"horizon": 6},
    "camera": {"f": 8.0, "cx": 4.0, "cy": 4.0, "width": 8, "height": 8},
    "policy": {"k": 2, "d_model": 32, "n_heads": 2, "n_layers_enc": 2,
               "n_layers_dec": 2, "n_layers_vae": 1, "d_ff": 32, "d_z": 4,
               "backbone_channels": [4, 8, 16]},
    "train": {"iterations": 5, "batch_size": 2},
    "eval": {"n_episodes": 2},
    "grid": {"cell": 1.0},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Run the whole pipeline once; individual tests assert on the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.json"
    cfg.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    c = ["--config", str(cfg)]

    assert main(["demos", "--n", "3", "--out", str(root / "demos.ndjson")] + c) == 0
    assert main(["train", "--demos", str(root / "demos.ndjson"),
                 "--out", str(root / "policy.npz"),
                 "--curve", str(root / "curve.csv")] + c) == 0
    assert main(["eval", "--policy", "act",
                 "--checkpoint", str(root / "policy.npz"),
                 "--n", "2", "--report", str(root / "report.json"),
                 "--episodes-out", str(root / "eval.ndjson"),
                 "--smoothness-csv", str(root / "smo.csv")] + c) == 0
    return root


class TestPipeline:
    def test_demos_artifact(self, workdir):
        eps = dataio.read_episodes(workdir / "demos.ndjson")
        assert len(eps) == 3
        assert all(ep.steps <= 6 for ep in eps)

    def test_train_artifacts(self, workdir):
        params, cfg, meta = load_policy(workdir / "policy.npz")
        assert meta["iteration"] == 5
        assert cfg.k == 2 and cfg.image_height == 8
        # embedded run context enables checkpoint-only evaluation
        assert meta["camera"]["width"] == 8
        assert "sim" in meta and "ensemble_decay" in meta
        lines = (workdir / "curve.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "iteration,l1,kl,total"
        assert len(lines) == 6

    def test_eval_report(self, workdir):
        doc = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
        assert doc["kind"] == "eval_report" and doc["format_version"] == 1
        rep = doc["report"]
        assert rep["policy"] == "act"
        assert rep["n_episodes"] == 2
        assert set(rep["success_rates"]) == {"0.8", "2", "4"}

    def test_eval_episode_and_smoothness_files(self, workdir):
        eps = dataio.read_episodes(workdir / "eval.ndjson")
        assert len(eps) == 2 and eps[0].policy == "act"
        smo = dataio.read_column(workdir / "smo.csv")
        assert smo.size == 2 and np.all(smo >= 0.0)

    def test_eval_expert_needs_no_checkpoint(self, workdir, capsys):
        cfg = ["--config", str(workdir / "run.json")]
        assert main(["eval", "--policy", "expert", "--n", "2",
                     "--report", str(workdir / "expert.json")] + cfg) == 0
        doc = json.loads((workdir / "expert.json").read_text(encoding="utf-8"))
        assert doc["report"]["policy"] == "expert"

    def test_chatter_policy_label(self, workdir):
        cfg = ["--config", str(workdir / "run.json")]
        assert main(["eval", "--policy", "chatter", "--n", "2",
                     "--report", str(workdir / "chatter.json")] + cfg) == 0
        doc = json.loads((workdir / "chatter.json").read_text(encoding="utf-8"))
        assert doc["report"]["policy"] == "chatter"

    def test_heatmap_counts_all_steps(self, workdir):
        cfg = ["--config", str(workdir / "run.json")]
        out = workdir / "heat.csv"
        assert main(["heatmap", "--episodes", str(workdir / "demos.ndjson"),
                     "--plane", "xy", "--out", str(out)] + cfg) == 0
        grid = dataio.read_heatmap_csv(out)
        eps = dataio.read_episodes(workdir / "demos.ndjson")
        assert grid.sum() == sum(ep.steps for ep in eps)

    def test_inspect_writes_frames(self, workdir):
        cfg = ["--config", str(workdir / "run.json")]
        outdir = workdir / "frames"
        assert main(["inspect", "--episodes", str(workdir / "demos.ndjson"),
                     "--episode", "1", "--outdir", str(outdir)] + cfg) == 0
        eps = dataio.read_episodes(workdir / "demos.ndjson")
        frames = sorted(outdir.glob("step_*.pgm"))
        assert len(frames) == eps[1].steps
        assert frames[0].read_bytes().startswith(b"P5\n8 8\n255\n")

    def test_stats_command(self, workdir):
        rng = np.random.default_rng(0)
        a, b = workdir / "a.csv", workdir / "b.csv"
        dataio.write_column(a, rng.normal(0.0, 1.0, 12))
        dataio.write_column(b, rng.normal(1.0, 2.0, 15))
        out, qq = workdir / "stats.json", workdir / "qq.csv"
        assert main(["stats", "--a", str(a), "--b", str(b),
                     "--out", str(out), "--qq-a", str(qq)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["kind"] == "stats_report"
        assert {"welch", "shapiro_a", "shapiro_b", "levene"} <= set(doc)
        assert doc["n_a"] == 12 and doc["n_b"] == 15
        pts = np.loadtxt(qq, delimiter=",", skiprows=1)
        assert pts.shape == (12, 2)


class TestExitCodes:
    def test_act_eval_without_checkpoint(self, capsys):
        assert main(["eval", "--policy", "act", "--n", "1"]) == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.ndjson")
        assert main(["heatmap", "--episodes", missing,
                     "--out", str(tmp_path / "h.csv")]) == 1
        assert "no such file" in capsys.readouterr().err

    def test_bad_config_reported(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"format_version": 1, "sim": {"masss": 1}}),
                       encoding="utf-8")
        assert main(["demos", "--n", "1", "--out", str(tmp_path / "d.ndjson"),
                     "--config", str(cfg)]) == 1
        assert "sim.masss" in capsys.readouterr().err

    def test_corrupt_demos_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.ndjson"
        bad.write_text('{"format_version": 1, "kind": "episodes"}\n{oops\n',
                       encoding="utf-8")
        assert main(["train", "--demos", str(bad),
                     "--out", str(tmp_path / "p.npz")]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_inspect_unknown_episode(self, workdir, capsys):
        assert main(["inspect", "--episodes", str(workdir / "demos.ndjson"),
                     "--episode", "99", "--outdir", str(workdir / "x"),
                     "--config", str(workdir / "run.json")]) == 1
        assert "episode" in capsys.readouterr().err

    def test_diverged_training_reported(self, workdir, tmp_path, capsys):
        cfg = dict(TINY_CONFIG, train={"iterations": 3, "batch_size": 2,
                                       "learning_rate": 1e300})
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy overflow warnings would escape main
            assert main(["train", "--demos", str(workdir / "demos.ndjson"),
                         "--out", str(tmp_path / "p.npz"), "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: diverged at iteration")
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("probe, field", [
        ("unknown-key", "policy_config.bogus"),
        ("negative-mass", "sim.mass"),
        ("missing-tensor", "head.w"),
        ("truncated-payload", "'head.b' (adam_v)"),
    ])
    def test_bad_checkpoint_reported(self, workdir, tmp_path, capsys, probe, field):
        params, meta = ParameterSet.load(workdir / "policy.npz")
        if probe == "unknown-key":
            meta["policy_config"]["bogus"] = 1
        elif probe == "negative-mass":
            meta["sim"]["mass"] = -5.0
        elif probe == "missing-tensor":
            kept = ParameterSet()
            for name, t in params.items():
                if name != "head.w":
                    kept.add(name, t.data)
            params = kept
        path = tmp_path / "bad.ckpt"
        params.save(path, meta=meta)
        if probe == "truncated-payload":  # cuts into the last tensor written
            path.write_bytes(path.read_bytes()[:-8])
        assert main(["eval", "--policy", "act", "--checkpoint", str(path), "--n", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err and field in err

    def test_usage_errors_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["demos"])  # --out is required
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--policy", "bogus"])
        assert exc.value.code == 2


def test_console_script_installed():
    exe = shutil.which("actdock")
    if exe is None:
        pytest.skip("package not installed with scripts")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "demos" in proc.stdout and "heatmap" in proc.stdout


def test_module_entry_point():
    # the child finds actdock where this process did, installed or not
    src = os.path.dirname(os.path.dirname(actdock.__file__))
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-m", "actdock.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "stats" in proc.stdout
