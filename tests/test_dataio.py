import json
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

    def test_blank_lines_tolerated(self, tmp_path, sample_episodes):
        path = tmp_path / "demos.ndjson"
        write_episodes(path, sample_episodes[:1])
        spaced = "\n\n".join(path.read_text(encoding="utf-8").splitlines())
        path.write_text(spaced + "\n", encoding="utf-8")
        assert len(read_episodes(path)) == 1


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def random_states(draw):
    """Any finite r, v and w; q a random direction scaled to unit length."""
    q = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
    norm = np.linalg.norm(q)
    if norm < 0.1:
        q, norm = np.array([1.0, 0.0, 0.0, 0.0]), 1.0
    r, v, w = (draw(st.lists(FINITE, min_size=3, max_size=3)) for _ in range(3))
    return ChaserState(r=r, v=v, q=q / norm, w=w)


@st.composite
def random_episodes(draw, episode_id):
    records = [StepRecord(state=draw(random_states()),
                          action=Action.from_vector(draw(st.lists(FINITE, min_size=6,
                                                                  max_size=6))),
                          dt=draw(FINITE))
               for _ in range(draw(st.integers(1, 4)))]
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
