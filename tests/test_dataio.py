import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actdock.dataio import (
    EPISODE_FORMAT_VERSION,
    ParseError,
    read_column,
    read_episodes,
    read_heatmap_csv,
    save_pgm,
    write_column,
    write_episodes,
    write_heatmap_csv,
)
from actdock.dynamics import Action, ChaserState, InitMode, SimConfig
from actdock.evaluate import Episode, StepRecord
from actdock.expert import ExpertConfig, generate_demos

from conftest import make_state


@pytest.fixture(scope="module")
def sample_episodes():
    return generate_demos(3, InitMode.SAME, 0, ExpertConfig(), SimConfig(horizon=8))


class TestEpisodeRoundTrip:
    def test_bit_exact(self, tmp_path, sample_episodes):
        path = tmp_path / "demos.ndjson"
        write_episodes(path, sample_episodes)
        back = read_episodes(path)
        assert len(back) == len(sample_episodes)
        for a, b in zip(sample_episodes, back):
            assert (a.episode_id, a.seed, a.policy, a.failed) == \
                (b.episode_id, b.seed, b.policy, b.failed)
            assert a.steps == b.steps
            np.testing.assert_array_equal(a.final_state.vector(),
                                          b.final_state.vector())
            for ra, rb in zip(a.records, b.records):
                np.testing.assert_array_equal(ra.state.vector(), rb.state.vector())
                np.testing.assert_array_equal(ra.action.vector(), rb.action.vector())
                assert ra.dt == rb.dt

    def test_header_first_line(self, tmp_path, sample_episodes):
        path = tmp_path / "demos.ndjson"
        write_episodes(path, sample_episodes)
        head = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert head == {"format_version": EPISODE_FORMAT_VERSION,
                        "kind": "episodes"}

    def test_zero_step_episode_round_trip(self, tmp_path, sample_episodes):
        """An episode with no step records reads back between two others."""
        final = make_state(r=(0.5, -3.0, 0.25))
        empty = Episode(episode_id=7, seed=3, policy="act", records=[], final_state=final,
                        failed=True, diagnostic="diverged")
        path = tmp_path / "demos.ndjson"
        write_episodes(path, [sample_episodes[0], empty, sample_episodes[1]])
        back = read_episodes(path)
        assert [ep.steps for ep in back] == [sample_episodes[0].steps, 0,
                                             sample_episodes[1].steps]
        got = back[1]
        assert (got.episode_id, got.seed, got.policy, got.records, got.failed,
                got.diagnostic) == (7, 3, "act", [], True, "diverged")
        assert got.final_state.vector().tobytes() == final.vector().tobytes()

    def test_huge_final_position_writes_finite_json(self, tmp_path, sample_episodes):
        """|r| = 1e200 squares past the float range; the summary's r_k is still
        the finite norm, and the file is strict JSON."""
        ep = sample_episodes[0]
        far = Episode(episode_id=1, seed=0, policy="expert", records=ep.records,
                      final_state=make_state(r=(1e200, -1e200, 0.0), v=(0.0, 3e199, -4e199)))
        assert (far.r_k, far.v_k) == (math.hypot(1e200, -1e200, 0.0),
                                      math.hypot(0.0, 3e199, -4e199))
        path = tmp_path / "far.ndjson"
        write_episodes(path, [far])

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        summary = [json.loads(line, parse_constant=reject)
                   for line in path.read_text(encoding="utf-8").splitlines()][-1]["summary"]
        assert (summary["r_k"], summary["v_k"]) == (far.r_k, far.v_k)
        assert read_episodes(path)[0].r_k == far.r_k

    def test_unrepresentable_value_names_the_path(self, tmp_path, sample_episodes):
        """A norm past the float range cannot be written as JSON: ValueError
        naming the file and the episode, not an Infinity token, and no file."""
        beyond = Episode(episode_id=4, seed=0, policy="expert", records=[],
                         final_state=make_state(r=(1.5e308, 1.5e308, 0.0)))
        path = tmp_path / "beyond.ndjson"
        with pytest.raises(ValueError, match=f"{path}: episode 4: Out of range float"):
            write_episodes(path, [sample_episodes[0], beyond])
        assert not path.exists()  # not a valid-looking file of the episodes before it

    def test_blank_lines_tolerated(self, tmp_path, sample_episodes):
        path = tmp_path / "demos.ndjson"
        write_episodes(path, sample_episodes[:1])
        spaced = "\n\n".join(path.read_text(encoding="utf-8").splitlines())
        path.write_text(spaced + "\n", encoding="utf-8")
        assert len(read_episodes(path)) == 1


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# |r| and |v| go into the summary as r_k and v_k, which must be finite JSON
# numbers: components up to 1e300 keep them so (test_huge_final_position_*),
# and a larger norm cannot be written (test_unrepresentable_value_names_the_path).
NORM_FINITE = st.floats(-1e300, 1e300)


@st.composite
def random_states(draw):
    """Any finite w, r and v with a finite norm; q a random direction scaled
    to unit length."""
    q = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
    norm = np.linalg.norm(q)
    if norm < 0.1:
        q, norm = np.array([1.0, 0.0, 0.0, 0.0]), 1.0
    r, v = (draw(st.lists(NORM_FINITE, min_size=3, max_size=3)) for _ in range(2))
    w = draw(st.lists(FINITE, min_size=3, max_size=3))
    return ChaserState(r=r, v=v, q=q / norm, w=w)


@st.composite
def random_episodes(draw, episode_id):
    records = [StepRecord(state=draw(random_states()),
                          action=Action.from_vector(draw(st.lists(FINITE, min_size=6,
                                                                  max_size=6))),
                          dt=draw(FINITE))
               for _ in range(draw(st.integers(0, 4)))]
    return Episode(episode_id=episode_id, seed=draw(st.integers(0, 2**63 - 1)),
                   policy=draw(st.text(max_size=8)), records=records,
                   final_state=draw(random_states()), failed=draw(st.booleans()),
                   diagnostic=draw(st.text(max_size=20)))


class TestEpisodeProperties:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_episodes_round_trip_bit_for_bit(self, data):
        episodes = [data.draw(random_episodes(i)) for i in range(data.draw(st.integers(1, 3)))]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "episodes.ndjson"
            write_episodes(path, episodes)
            back = read_episodes(path)
        assert len(back) == len(episodes)
        for a, b in zip(episodes, back):
            assert (a.episode_id, a.seed, a.policy, a.failed, a.diagnostic, a.steps) == \
                (b.episode_id, b.seed, b.policy, b.failed, b.diagnostic, b.steps)
            assert a.final_state.vector().tobytes() == b.final_state.vector().tobytes()
            for ra, rb in zip(a.records, b.records):
                assert ra.state.vector().tobytes() == rb.state.vector().tobytes()
                assert ra.action.vector().tobytes() == rb.action.vector().tobytes()
                assert np.float64(ra.dt).tobytes() == np.float64(rb.dt).tobytes()


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestEpisodeParseErrors:
    HEADER = json.dumps({"format_version": 1, "kind": "episodes"})
    STEP = json.dumps({"episode": 0, "t": 0, "dt": 0.9,
                       "state": [0, -25, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
                       "action": [0, 0, 0, 0, 0, 0]})

    def summary(self, steps=1, episode=0):
        return json.dumps({"episode": episode, "summary": {
            "steps": steps, "r_k": 25.0, "v_k": 0.0,
            "final_state": [0, -25, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
            "seed": 0, "policy": "expert", "failed": False, "diagnostic": ""}})

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.ndjson"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError, match="empty"):
            read_episodes(path)

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "e.ndjson"
        _write_lines(path, [self.HEADER, "{not json"])
        with pytest.raises(ParseError, match="line 2"):
            read_episodes(path)

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "e.ndjson"
        _write_lines(path, [json.dumps({"format_version": 1, "kind": "losses"})])
        with pytest.raises(ParseError, match="header"):
            read_episodes(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "e.ndjson"
        _write_lines(path, [json.dumps({"format_version": 99, "kind": "episodes"})])
        with pytest.raises(ParseError, match="format_version"):
            read_episodes(path)

    def test_step_order_enforced(self, tmp_path):
        step1 = json.loads(self.STEP)
        step1["t"] = 2
        path = tmp_path / "e.ndjson"
        _write_lines(path, [self.HEADER, self.STEP, json.dumps(step1),
                            self.summary(steps=2)])
        with pytest.raises(ParseError, match="t=1"):
            read_episodes(path)

    def test_summary_step_count_checked(self, tmp_path):
        path = tmp_path / "e.ndjson"
        _write_lines(path, [self.HEADER, self.STEP, self.summary(steps=5)])
        with pytest.raises(ParseError, match="5 steps"):
            read_episodes(path)

    def test_missing_summary(self, tmp_path):
        path = tmp_path / "e.ndjson"
        _write_lines(path, [self.HEADER, self.STEP])
        with pytest.raises(ParseError, match="no summary"):
            read_episodes(path)

    def test_summary_for_another_open_episode(self, tmp_path):
        path = tmp_path / "e.ndjson"
        _write_lines(path, [self.HEADER, self.STEP, self.summary(episode=1)])
        with pytest.raises(ParseError, match="summary for episode 1 out of order"):
            read_episodes(path)

    def test_interleaved_episodes(self, tmp_path):
        other = json.loads(self.STEP)
        other["episode"] = 1
        path = tmp_path / "e.ndjson"
        _write_lines(path, [self.HEADER, self.STEP, json.dumps(other)])
        with pytest.raises(ParseError, match="interleaved"):
            read_episodes(path)

    def test_malformed_state_vector(self, tmp_path):
        bad = json.loads(self.STEP)
        bad["state"] = [1.0, 2.0]
        path = tmp_path / "e.ndjson"
        _write_lines(path, [self.HEADER, json.dumps(bad), self.summary()])
        with pytest.raises(ParseError, match="bad step record"):
            read_episodes(path)


class TestColumnCSV:
    def test_round_trip_exact(self, tmp_path):
        vals = np.array([1 / 3, 2.5e-17, -np.pi, 6329.0])
        path = tmp_path / "c.csv"
        write_column(path, vals, header="smoothness")
        back = read_column(path)
        np.testing.assert_array_equal(back, vals)

    def test_headerless_round_trip(self, tmp_path):
        path = tmp_path / "c.csv"
        write_column(path, [1.5, 2.5])
        np.testing.assert_array_equal(read_column(path), [1.5, 2.5])

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("h\n1.0\nbogus\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 3"):
            read_column(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("header only\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_column(path)


class TestHeatmapCSV:
    def test_round_trip(self, tmp_path):
        grid = np.arange(12, dtype=np.int64).reshape(3, 4)
        path = tmp_path / "h.csv"
        write_heatmap_csv(path, grid)
        np.testing.assert_array_equal(read_heatmap_csv(path), grid)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("1,2,3\n4,5\n", encoding="utf-8")
        with pytest.raises(ParseError, match="ragged"):
            read_heatmap_csv(path)

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("1,2\n3,x\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            read_heatmap_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_heatmap_csv(path)


class TestPGM:
    def test_bytes_layout(self, tmp_path):
        img = np.array([[0.0, 0.5], [1.0, 2.0]])  # 2.0 clips to 255
        path = tmp_path / "i.pgm"
        save_pgm(path, img)
        data = path.read_bytes()
        assert data.startswith(b"P5\n2 2\n255\n")
        assert data[len(b"P5\n2 2\n255\n"):] == bytes([0, 128, 255, 255])

    def test_requires_2d(self, tmp_path):
        with pytest.raises(ValueError):
            save_pgm(tmp_path / "i.pgm", np.zeros((2, 2, 3)))
