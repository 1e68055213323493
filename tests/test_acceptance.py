"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints (and registers for the terminal summary) a single
PASS/FAIL line naming the guarantee, the measured values and the pinned
tolerances. The heavyweight pipeline -- 100 smooth demos, behavioral
cloning, traced 100-episode closed-loop evaluation plus expert and
chatter baselines -- runs once in a module fixture and feeds the
ensembling audit and the end-to-end property checks.
"""

import functools
import time
from dataclasses import asdict

import numpy as np
import pytest

from actdock.config import default_run_config
from actdock.dataio import read_episodes, write_episodes
from actdock.dynamics import Action, InitMode, SimConfig, step
from actdock.ensemble import ChunkBuffer, ensemble, push
from actdock.evaluate import (
    ActController,
    Episode,
    GridSpec,
    StepRecord,
    heatmap,
    run_episodes,
    smoothness,
    terminal_report,
)
from actdock.expert import ExpertConfig, ExpertController, generate_demos
from actdock.policy import embed_observation, encode_style, init_params, predict_chunk
from actdock.stats import levene, shapiro_wilk, t_two_tailed, welch
from actdock.tensor import ParameterSet, Tensor
from actdock.training import TrainConfig, bc_loss, load_policy, train
from actdock import tensor as T

import oracles
from conftest import ACCEPTANCE_LINES, make_state, tiny_policy_config

# Iteration budgets chosen empirically; see the loss-curve expectations below.
C5_MAX_ITERS = 2500  # overfit check cap (guarantee allows 5000)
C6_ITERS = 12000  # 100-demo training budget


def _record(num: int, name: str, checks) -> None:
    passed = all(ok for ok, _ in checks)
    detail = "; ".join(d for _, d in checks)
    line = f"criterion {num} [{'PASS' if passed else 'FAIL'}] {name}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert passed, line


def criterion(num: int, name: str):
    """Wrap a test returning [(ok, detail), ...] into a recorded pass/fail."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                checks = fn(*args, **kwargs)
            except Exception as err:  # still emit a line for the summary
                _record(num, name, [(False, f"errored: {err!r}")])
                raise
            _record(num, name, checks)

        return wrapper

    return deco


@pytest.fixture(scope="module")
def pipeline():
    """Demos -> training -> traced ACT eval + expert/chatter baselines."""
    cfg = default_run_config()
    t0 = time.perf_counter()
    demos = generate_demos(100, InitMode.SAME, 0, cfg.expert, cfg.sim)
    params, curve = train(demos, cfg.policy,
                          TrainConfig(iterations=C6_ITERS, seed=0),
                          cfg.camera, cfg.marker)
    act_ctrl = ActController(params, cfg.policy, decay=cfg.eval.ensemble_decay,
                             collect_trace=True)
    act_eps = run_episodes(act_ctrl, 100, InitMode.SAME, 1, cfg.sim,
                           cfg.camera, cfg.marker)
    expert_eps = run_episodes(ExpertController(cfg.expert, cfg.sim), 100,
                              InitMode.SAME, 1, cfg.sim)
    chatter_eps = run_episodes(ExpertController(cfg.expert, cfg.sim, chatter=True),
                               100, InitMode.SAME, 1, cfg.sim)
    return {
        "cfg": cfg,
        "demos": demos,
        "curve": curve,
        "act": act_eps,
        "expert": expert_eps,
        "chatter": chatter_eps,
        "wall_s": time.perf_counter() - t0,
    }


@criterion(1, "Welch reproduction from published summary statistics")
def test_criterion_1_welch_summary():
    t0 = time.perf_counter()
    r = welch((9.39, 0.74, 100), (1.71, 0.32, 100))
    elapsed = time.perf_counter() - t0
    return [
        (93.5 <= abs(r.statistic) <= 96.5,
         f"|t|={abs(r.statistic):.4f} in [93.5, 96.5]"),
        (133.5 <= r.df <= 136.0, f"df={r.df:.4f} in [133.5, 136]"),
        (r.p < 1e-3, f"p={r.p:.3g} < 0.001"),
        (elapsed < 1.0, f"runtime {elapsed * 1e3:.1f} ms < 1 s"),
    ]


@pytest.mark.slow
@criterion(2, "temporal-ensembling weight and convex-hull fidelity")
def test_criterion_2_ensembling_fidelity(pipeline):
    # Hand example, m=1, predictions {1, 2, 3} oldest-to-newest by age.
    # Exact value of the recency-weighted average:
    # (1 + 2e^-1 + 3e^-2) / (1 + e^-1 + e^-2) = 1.4247896173955585.
    buf = ChunkBuffer(k=3, decay=1.0)
    push(buf, np.full((3, 6), 3.0), 0)
    push(buf, np.full((3, 6), 2.0), 1)
    push(buf, np.full((3, 6), 1.0), 2)
    hand = float(ensemble(buf, 2)[0])
    hand_expected = 1.4247896173955585

    # Audit every ensembling call of the traced 100-episode evaluation by
    # recomputing the blend in plain numpy from the recorded raw chunks.
    cfg = pipeline["cfg"]
    k, decay = cfg.policy.k, cfg.eval.ensemble_decay
    calls = 0
    max_sum_err = 0.0
    max_blend_err = 0.0
    hull_ok = True
    for ep in pipeline["act"]:
        assert ep.chunk_trace is not None and len(ep.chunk_trace) == ep.steps
        for t, rec in enumerate(ep.records):
            cover = [(t - t0, chunk[t - t0]) for t0, chunk in ep.chunk_trace
                     if t0 <= t < t0 + k]
            ages = np.array([age for age, _ in cover], dtype=np.float64)
            preds = np.array([p for _, p in cover])
            w = np.exp(-decay * ages)
            w /= w.sum()
            blend = w @ preds
            executed = rec.action.vector()
            calls += 1
            max_sum_err = max(max_sum_err, abs(float(w.sum()) - 1.0))
            max_blend_err = max(max_blend_err,
                                float(np.max(np.abs(blend - executed))))
            lo = preds.min(axis=0) - 1e-12
            hi = preds.max(axis=0) + 1e-12
            hull_ok = hull_ok and bool(np.all(executed >= lo)
                                       and np.all(executed <= hi))
    return [
        (abs(hand - hand_expected) <= 1e-6,
         f"m=1 example {hand:.10f} vs {hand_expected:.10f} (tol 1e-6)"),
        (max_sum_err <= 1e-12,
         f"{calls} calls audited, max |sum(w)-1| {max_sum_err:.2e} <= 1e-12"),
        (max_blend_err <= 1e-12,
         f"executed action matches recomputed blend to {max_blend_err:.2e}"),
        (hull_ok, "all outputs inside the componentwise prediction hull"),
    ]


@criterion(3, "dynamics against the closed-form drift solution")
def test_criterion_3_dynamics_oracle():
    sim = SimConfig()
    coast = Action(thrust=np.zeros(3), torque=np.zeros(3))
    t0 = time.perf_counter()
    max_dr = 0.0
    max_dv = 0.0
    starts = [
        ((0.0, -25.0, 0.0), (0.0, 0.0, 0.0)),
        ((5.0, -20.0, 1.0), (0.01, 0.05, -0.02)),
        ((-3.0, 10.0, 2.0), (-0.02, 0.01, 0.03)),
    ]
    for r0, v0 in starts:
        state = make_state(r=r0, v=v0)
        for _ in range(60):
            state = step(state, coast, 1.0, sim)
        r_ref, v_ref = oracles.cw_propagate(r0, v0, sim.n, 60.0)
        max_dr = max(max_dr, float(np.max(np.abs(state.r - r_ref))))
        max_dv = max(max_dv, float(np.max(np.abs(state.v - v_ref))))

    # torque-free tumble: the asymmetric inertia couples all three rates
    coast_spin = Action(thrust=np.zeros(3), torque=np.zeros(3))
    state = make_state(w=(0.05, -0.03, 0.08))
    max_norm_err = 0.0
    for _ in range(10_000):
        state = step(state, coast_spin, 0.89, sim)
        max_norm_err = max(max_norm_err,
                           abs(float(np.linalg.norm(state.q)) - 1.0))
    elapsed = time.perf_counter() - t0
    return [
        (max_dr <= 1e-6, f"60 s drift max |dr| {max_dr:.2e} m <= 1e-6"),
        (max_dv <= 1e-8, f"max |dv| {max_dv:.2e} m/s <= 1e-8"),
        (max_norm_err < 1e-9,
         f"quaternion norm error {max_norm_err:.2e} < 1e-9 over 10,000 steps"),
        (elapsed < 5.0, f"runtime {elapsed:.2f} s < 5 s"),
    ]


@criterion(4, "policy gradients against central finite differences")
def test_criterion_4_gradcheck():
    cfg = tiny_policy_config()  # d_model=32, 2 encoder + 2 decoder layers
    params = init_params(cfg, seed=0)
    rng = np.random.default_rng(7)
    batch = 2
    images = rng.uniform(0.0, 1.0, size=(batch, 1, 8, 8))
    states = rng.normal(0.0, 1.0, size=(batch, cfg.d_state))
    scale = cfg.action_scale_vec()
    # keep |pred - target| away from the L1 kink at the FD step size
    targets = rng.uniform(0.3, 0.9, size=(batch, cfg.k, cfg.d_action)) * scale
    masks = np.ones((batch, cfg.k), dtype=bool)
    eps = rng.standard_normal((batch, cfg.d_z))

    def forward():
        tokens = embed_observation(images, states, params, cfg)
        style = encode_style(states, targets, params, cfg, eps)
        pred = predict_chunk(tokens, style.z, params, cfg)
        pred_n = T.mul(pred, Tensor(1.0 / scale))
        total, _, _ = bc_loss(pred_n, targets / scale, masks, style, beta=10.0)
        return total

    def value_fn():
        return forward().item()

    def grad_fn():
        params.zero_grad()
        forward().backward()

    t0 = time.perf_counter()
    worst, rows = oracles.check_param_grads(
        value_fn, grad_fn, dict(params.items()), np.random.default_rng(3),
        per_tensor=3, h=1e-5, rel_floor=1e-4)
    elapsed = time.perf_counter() - t0
    return [
        (worst < 1e-4,
         f"max relative gradient error {worst:.2e} < 1e-4 "
         f"({len(rows)} probes over {len(params)} tensors)"),
        (elapsed < 120.0, f"runtime {elapsed:.1f} s < 2 min"),
    ]


@pytest.mark.slow
@criterion(5, "behavioral cloning overfits 5 demonstrations")
def test_criterion_5_overfit():
    cfg = default_run_config()
    t0 = time.perf_counter()
    demos = generate_demos(5, InitMode.SAME, 0, cfg.expert, cfg.sim)
    _, curve = train(demos, cfg.policy, TrainConfig(iterations=C5_MAX_ITERS, seed=0),
                     cfg.camera, cfg.marker)
    elapsed = time.perf_counter() - t0
    l1 = np.array([c[1] for c in curve])
    initial = float(l1[:50].mean())
    trail = np.convolve(l1, np.ones(50) / 50.0, mode="valid")
    below = np.nonzero(trail < 0.05 * initial)[0]
    cross = int(below[0]) + 50 if below.size else None
    return [
        (cross is not None and cross <= 5000,
         f"trailing-50 L1 mean fell below 5% of the initial-50 average "
         f"({initial:.4f}) at iteration {cross} <= 5000"),
        (elapsed < 600.0, f"runtime {elapsed:.0f} s < 10 min"),
    ]


@pytest.mark.slow
@criterion(6, "cloned policy docks and beats the chatter baseline")
def test_criterion_6_end_to_end(pipeline):
    demos = pipeline["demos"]
    total = sum(ep.steps for ep in demos)
    act_rep = terminal_report(pipeline["act"])
    expert_rep = terminal_report(pipeline["expert"])
    act_smo = np.array([smoothness(ep) for ep in pipeline["act"]
                        if ep.steps >= 2])
    chat_smo = np.array([smoothness(ep) for ep in pipeline["chatter"]
                         if ep.steps >= 2])
    w = welch(act_smo, chat_smo)
    ratio = act_rep.r_k_mean / expert_rep.r_k_mean
    return [
        (len(demos) == 100, "trained on exactly 100 smooth-expert demos"),
        (6300 <= total <= 6350, f"{total} demo interactions in [6300, 6350]"),
        (ratio <= 1.5,
         f"mean terminal range {act_rep.r_k_mean:.3f} m vs expert "
         f"{expert_rep.r_k_mean:.3f} m (ratio {ratio:.2f} <= 1.5)"),
        (act_smo.mean() < chat_smo.mean(),
         f"smoothness {act_smo.mean():.3f} < chatter {chat_smo.mean():.3f}"),
        (w.p < 0.01, f"Welch t={w.statistic:.1f}, p={w.p:.3g} < 0.01"),
        (pipeline["wall_s"] < 3600.0,
         f"pipeline runtime {pipeline['wall_s']:.0f} s < 1 h"),
    ]


@criterion(7, "statistics against published references")
def test_criterion_7_stats_oracles():
    # Canonical published normality example: weights of 11 men, printed
    # W = 0.79; AS R94 reference values frozen at full precision.
    weights = np.array([148.0, 154.0, 158.0, 160.0, 161.0, 162.0,
                        166.0, 170.0, 182.0, 195.0, 236.0])
    sw = shapiro_wilk(weights)
    t_tail = t_two_tailed(1.96, 1e6)
    lv = levene(np.array([1.0, 2.0, 4.0, 8.0]), np.array([1.0, 3.0, 9.0, 27.0]))
    # hand ANOVA on |deviation from group mean|: group means 2.25 and 8.5,
    # SSB = 78.125, SSW = 139.5, F = 78.125 / (139.5 / 6)
    f_hand = 78.125 / (139.5 / 6.0)
    return [
        (abs(sw.statistic - 0.7888146949) <= 1e-3,
         f"Shapiro-Wilk W={sw.statistic:.7f} vs reference 0.7888147 "
         "(tol 1e-3; printed value 0.79)"),
        (abs(sw.p - 0.0067038141) <= 1e-4,
         f"p={sw.p:.7f} vs reference 0.0067038"),
        (abs(t_tail - 0.05) <= 5e-4,
         f"two-tailed p at |t|=1.96, df=1e6: {t_tail:.6f} = 0.0500 +/- 0.0005"),
        (abs(lv.statistic - f_hand) <= 1e-10,
         f"Levene F={lv.statistic:.12f} vs hand value {f_hand:.12f} (tol 1e-10)"),
        (lv.df == 1.0 and lv.df2 == 6.0, f"df=({lv.df:g}, {lv.df2:g}) = (1, 6)"),
    ]


@criterion(8, "reports and on-disk formats round-trip")
def test_criterion_8_formats(tmp_path):
    # engineered terminal set with known mean and nearest-rank percentiles
    r_k = ([1.30] * 74 + [1.557] + [1.6] * 19 + [1.738] + [1.75] * 3
           + [1.810] + [2.145])
    episodes = []
    for i, r in enumerate(r_k):
        rec = [StepRecord(state=make_state(), action=Action(
            thrust=np.full(3, float(j)), torque=np.zeros(3)), dt=0.9)
            for j in range(2)]
        episodes.append(Episode(
            episode_id=i, seed=0, policy="expert", records=rec,
            final_state=make_state(r=(0.0, -r, 0.0), v=(0.0, r / 100.0, 0.0))))
    rep = terminal_report(episodes)
    report_ok = (
        abs(rep.r_k_mean - 1.391) < 1e-12
        and rep.r_k_p75 == 1.557 and rep.r_k_p95 == 1.738
        and rep.r_k_p99 == 1.810
        and abs(rep.v_k_mean - 0.01391) < 1e-12
        and rep.v_k_p75 == 1.557 / 100.0 and rep.v_k_p95 == 1.738 / 100.0
        and rep.v_k_p99 == 1.810 / 100.0
    )
    monotone = (rep.r_k_p75 <= rep.r_k_p95 <= rep.r_k_p99
                and rep.v_k_p75 <= rep.v_k_p95 <= rep.v_k_p99)

    # NDJSON round-trip on real generated episodes
    demos = generate_demos(2, InitMode.SAME, 0, ExpertConfig(),
                           SimConfig(horizon=8))
    path = tmp_path / "episodes.ndjson"
    write_episodes(path, demos)
    back = read_episodes(path)
    ndjson_ok = len(back) == len(demos)
    for a, b in zip(demos, back):
        ndjson_ok = ndjson_ok and a.steps == b.steps
        for ra, rb in zip(a.records, b.records):
            ndjson_ok = (ndjson_ok
                         and np.array_equal(ra.state.vector(), rb.state.vector())
                         and np.array_equal(ra.action.vector(), rb.action.vector())
                         and ra.dt == rb.dt)
        ndjson_ok = ndjson_ok and np.array_equal(a.final_state.vector(),
                                                 b.final_state.vector())

    # checkpoint round-trip through the real save/load path
    cfg = tiny_policy_config()
    params = init_params(cfg, seed=3)
    ckpt = tmp_path / "ckpt.npz"
    params.save(ckpt, meta={"iteration": 0, "policy_config": asdict(cfg)})
    loaded, cfg2, _ = load_policy(ckpt)
    ckpt_ok = (cfg2 == cfg and set(loaded.names()) == set(params.names())
               and all(np.array_equal(params[n].data, loaded[n].data)
                       for n in params.names()))

    # heatmap conservation: every recorded sample lands in exactly one cell
    n_samples = sum(ep.steps for ep in demos)
    counts = heatmap(demos, "xy", GridSpec())
    return [
        (report_ok, "terminal report mean/p75/p95/p99 match the engineered "
                    "values for both range and speed"),
        (monotone, "percentiles are monotone"),
        (ndjson_ok, "episode NDJSON round-trips bit-exactly"),
        (ckpt_ok, "checkpoint round-trips bit-exactly with its config"),
        (int(counts.sum()) == n_samples,
         f"heatmap counts sum to {n_samples} recorded samples"),
    ]
