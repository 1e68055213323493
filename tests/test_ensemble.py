import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actdock.ensemble import ChunkBuffer, ensemble, push


def col(*values):
    """(k, 1) chunk whose prediction at offset i is values[i]."""
    return np.array(values, dtype=np.float64)[:, None]


class TestBufferWiring:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChunkBuffer(k=0)
        with pytest.raises(ValueError):
            ChunkBuffer(k=4, decay=-0.1)

    def test_push_shape_checked(self):
        buf = ChunkBuffer(k=3)
        with pytest.raises(ValueError):
            push(buf, np.zeros((2, 6)), 0)
        with pytest.raises(ValueError):
            push(buf, np.zeros(3), 0)

    def test_eviction_by_age(self):
        buf = ChunkBuffer(k=2)
        push(buf, col(0.0, 0.0), 0)
        push(buf, col(1.0, 1.0), 1)
        push(buf, col(2.0, 2.0), 2)  # step 0 chunk now 2 >= k old
        assert [e for e, _ in buf.entries] == [2, 1]

    def test_newest_first_ordering(self):
        buf = ChunkBuffer(k=4)
        for t in range(3):
            push(buf, col(*range(4)), t)
        assert [e for e, _ in buf.entries] == [2, 1, 0]

    def test_no_coverage_raises(self):
        buf = ChunkBuffer(k=2)
        push(buf, col(1.0, 2.0), 0)
        with pytest.raises(ValueError):
            ensemble(buf, 5)
        with pytest.raises(ValueError):
            ensemble(ChunkBuffer(k=2), 0)


class TestWeighting:
    def test_single_chunk_returns_its_prediction(self):
        buf = ChunkBuffer(k=3, decay=0.7)
        push(buf, col(10.0, 20.0, 30.0), 5)
        assert ensemble(buf, 5)[0] == 10.0
        assert ensemble(buf, 6)[0] == 20.0
        assert ensemble(buf, 7)[0] == 30.0

    def test_hand_computed_three_predictions(self):
        """decay m=1; predictions 1 (newest), 2, 3 (oldest) for the same step:
        (1 + 2 e^-1 + 3 e^-2) / (1 + e^-1 + e^-2)
        = 2.1417647320527228 / 1.503214724408055 = 1.4247896173955585
        """
        buf = ChunkBuffer(k=3, decay=1.0)
        push(buf, col(0.0, 0.0, 3.0), 0)  # covers step 2 at offset 2
        push(buf, col(0.0, 2.0, 0.0), 1)  # covers step 2 at offset 1
        push(buf, col(1.0, 0.0, 0.0), 2)  # covers step 2 at offset 0
        out = ensemble(buf, 2)
        w = np.exp(-1.0 * np.arange(3))
        expected = (w @ [1.0, 2.0, 3.0]) / w.sum()
        assert out[0] == pytest.approx(expected, abs=1e-12)
        assert out[0] == pytest.approx(1.4247896, abs=1e-6)

    def test_newest_prediction_dominates(self):
        buf = ChunkBuffer(k=2, decay=2.0)
        push(buf, col(0.0, 100.0), 0)
        push(buf, col(1.0, 0.0), 1)
        out = ensemble(buf, 1)[0]
        # newest (value 1) has weight 1/(1+e^-2) ~ 0.881
        assert out == pytest.approx((1.0 + 100.0 * np.exp(-2)) / (1 + np.exp(-2)))

    def test_zero_decay_is_plain_average(self):
        buf = ChunkBuffer(k=2, decay=0.0)
        push(buf, col(0.0, 4.0), 0)
        push(buf, col(2.0, 0.0), 1)
        assert ensemble(buf, 1)[0] == pytest.approx(3.0)

    def test_weights_sum_to_one_and_convex(self):
        rng = np.random.default_rng(0)
        buf = ChunkBuffer(k=8, decay=0.01)
        chunks = {}
        for t in range(30):
            c = rng.normal(size=(8, 6))
            chunks[t] = c
            push(buf, c, t)
            out = ensemble(buf, t)
            covering = [chunks[e][t - e] for e in range(max(0, t - 7), t + 1)]
            lo = np.min(covering, axis=0)
            hi = np.max(covering, axis=0)
            assert (out >= lo - 1e-12).all() and (out <= hi + 1e-12).all()

    def test_multidimensional_blend(self):
        buf = ChunkBuffer(k=2, decay=0.5)
        push(buf, np.array([[0.0, 0.0], [2.0, -2.0]]), 0)
        push(buf, np.array([[4.0, -4.0], [0.0, 0.0]]), 1)
        w = np.exp(-0.5 * np.arange(2))
        w /= w.sum()
        expected = w[0] * np.array([4.0, -4.0]) + w[1] * np.array([2.0, -2.0])
        np.testing.assert_allclose(ensemble(buf, 1), expected, atol=1e-12)


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_blend_is_the_renormalized_convex_combination(self, data):
        """At every step, the ensembled action is sum_i w_i p_i over the chunks
        covering it, newest first, with w_i = exp(-m i) / sum_j exp(-m j), and
        lies within each component's min and max over those predictions."""
        k = data.draw(st.integers(1, 8), label="k")
        decay = data.draw(st.floats(0.0, 5.0), label="decay")
        dim = data.draw(st.integers(1, 6), label="dim")
        gaps = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=20), label="gaps")
        values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
        buf = ChunkBuffer(k=k, decay=decay)
        emitted = {}
        step = -1
        for gap in gaps:
            step += gap
            chunk = np.array(data.draw(st.lists(st.lists(values, min_size=dim, max_size=dim),
                                                min_size=k, max_size=k)))
            emitted[step] = chunk
            push(buf, chunk, step)
            for t in range(step, step + k):  # every step the newest chunk covers
                covering = [emitted[e][t - e] for e in sorted(emitted, reverse=True)
                            if 0 <= t - e < k][:k]
                w = np.exp(-decay * np.arange(len(covering)))
                w /= w.sum()
                preds = np.array(covering)
                out = ensemble(buf, t)
                slack = 1e-12 * max(1.0, np.abs(preds).max())
                np.testing.assert_allclose(out, w @ preds, rtol=0, atol=slack)
                assert (out >= preds.min(axis=0) - slack).all()
                assert (out <= preds.max(axis=0) + slack).all()
