import numpy as np
import pytest

from actdock.config import default_run_config
from actdock.dynamics import Action, ChaserState, SimConfig
from actdock.evaluate import Episode, StepRecord
from actdock.policy import PolicyConfig

# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def run_cfg():
    return default_run_config()


@pytest.fixture
def sim():
    return SimConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_state(r=(0.0, -25.0, 0.0), v=(0.0, 0.0, 0.0),
               q=(1.0, 0.0, 0.0, 0.0), w=(0.0, 0.0, 0.0)):
    return ChaserState(
        r=np.asarray(r, dtype=np.float64),
        v=np.asarray(v, dtype=np.float64),
        q=np.asarray(q, dtype=np.float64),
        w=np.asarray(w, dtype=np.float64),
    )


def tiny_policy_config(**overrides):
    """Smallest config the shape constraints allow; fast to run and check."""
    kw = dict(
        k=2,
        d_model=32,
        n_heads=2,
        n_layers_enc=2,
        n_layers_dec=2,
        n_layers_vae=1,
        d_ff=32,
        d_z=4,
        image_height=8,
        image_width=8,
        backbone_channels=(4, 8, 16),
    )
    kw.update(overrides)
    return PolicyConfig(**kw)


FAILED_DIAGNOSTIC = "step 1: propagation produced a non-finite state"


def docked_and_failed():
    """Two 2-step expert episodes: episode 0 ends 0.05 m from the port;
    episode 1 failed at step 1, its last finite state 50 m out."""
    def episode(eid, r_final):
        records = [StepRecord(state=make_state(r=(0.0, -25.0 + i, 0.0)),
                              action=Action.from_vector(np.full(6, float(i))), dt=0.9)
                   for i in range(2)]
        return Episode(episode_id=eid, seed=0, policy="expert", records=records,
                       final_state=make_state(r=r_final))

    docked, failed = episode(0, (0.0, -0.05, 0.0)), episode(1, (0.0, -50.0, 0.0))
    failed.failed = True
    failed.diagnostic = FAILED_DIAGNOSTIC
    return docked, failed
