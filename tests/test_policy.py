import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from admitsim.errors import EndOfDemo, LengthMismatch
from admitsim.expert import SupervisionTuple
from admitsim.policy import NoiseSpec, loss, predict


def make_demo(n, contact_from=None):
    demo = []
    for i in range(n):
        pose10 = np.zeros(10)
        pose10[0] = 0.01 * i
        pose10[3] = 1.0
        pose10[7] = 1.0
        pose10[9] = 1.0
        c = 1 if (contact_from is not None and i >= contact_from) else 0
        n_vec = np.array([0.0, 0.0, 1.0]) if c else np.zeros(3)
        demo.append(SupervisionTuple(pose10, n_vec, c))
    return demo


class TestPredict:
    def test_zero_noise_exact_slice(self):
        demo = make_demo(40, contact_from=10)
        chunk = predict(4, demo, NoiseSpec(), horizon=16)
        assert len(chunk) == 16
        for k in range(16):
            assert_allclose(chunk[k].pose10, demo[4 + k].pose10)
            assert chunk[k].contact == demo[4 + k].contact

    def test_pads_by_repeating_last(self):
        demo = make_demo(10)
        chunk = predict(8, demo, NoiseSpec(), horizon=16)
        for k in range(2, 16):
            assert_allclose(chunk[k].pose10, demo[-1].pose10)

    def test_end_of_demo_raises(self):
        demo = make_demo(10)
        with pytest.raises(EndOfDemo):
            predict(10, demo, NoiseSpec())

    def test_chunk_horizon_must_be_positive(self):
        with pytest.raises(ValueError, match="chunk horizon must be >= 1"):
            predict(0, make_demo(10), NoiseSpec(), horizon=0)

    def test_normals_remain_unit_under_cone_noise(self):
        demo = make_demo(30, contact_from=0)
        chunk = predict(0, demo, NoiseSpec(normal_cone_std=0.2, seed=3))
        for tup in chunk:
            assert abs(np.linalg.norm(tup.normal) - 1.0) < 1e-9

    def test_deterministic_per_seed(self):
        demo = make_demo(30, contact_from=5)
        spec = NoiseSpec(pos_std=0.01, rot_std=0.05, normal_cone_std=0.1,
                         contact_flip_prob=0.2, seed=9)
        a = predict(2, demo, spec)
        b = predict(2, demo, spec)
        for x, y in zip(a, b):
            assert_allclose(x.pose10, y.pose10)
            assert_allclose(x.normal, y.normal)
            assert x.contact == y.contact

    def test_flipped_on_contact_gets_unit_normal(self):
        demo = make_demo(64)  # never in contact
        spec = NoiseSpec(contact_flip_prob=0.5, seed=1)
        chunk = predict(0, demo, spec, horizon=64)
        flipped = [t for t in chunk if t.contact == 1]
        assert flipped  # with p=0.5 over 64 steps some flips occur
        for t in flipped:
            assert abs(np.linalg.norm(t.normal) - 1.0) < 1e-9

    def test_rot6d_stays_decodable_under_rot_noise(self):
        from admitsim.geometry import rot6d_decode
        demo = make_demo(20)
        chunk = predict(0, demo, NoiseSpec(rot_std=0.3, seed=7))
        for t in chunk:
            rot6d_decode(t.pose10[3:9])


class TestLoss:
    def test_zero_for_identical(self):
        demo = make_demo(12, contact_from=4)
        assert loss(demo, demo) == 0.0

    def test_pose_mean_absolute(self):
        gt = make_demo(1)
        pred = make_demo(1)
        pose10 = pred[0].pose10.copy()
        pose10[0] += 0.1
        pred = [SupervisionTuple(pose10, pred[0].normal, pred[0].contact)]
        assert loss(pred, gt, 1.0, 0.0, 0.0) == pytest.approx(0.01)

    def test_contact_flag_counting(self):
        gt = make_demo(4)
        pred = make_demo(4)
        flipped = SupervisionTuple(pred[1].pose10, pred[1].normal, 1)
        pred = [pred[0], flipped, pred[2], pred[3]]
        assert loss(pred, gt, 0.0, 0.0, 1.0) == pytest.approx(0.25)

    def test_normal_masked_to_contact_steps(self):
        gt = make_demo(4)  # all c=0
        pred = []
        for t in gt:
            pred.append(SupervisionTuple(t.pose10, np.array([1.0, 0, 0]), t.contact))
        # Normal differs everywhere but no ground-truth contact: term masked out.
        assert loss(pred, gt, 0.0, 1.0, 0.0) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            loss(make_demo(3), make_demo(4))

    @given(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_linear_in_weights(self, l1, l2, l3):
        gt = make_demo(6, contact_from=2)
        rng = np.random.default_rng(0)
        pred = []
        for t in gt:
            p = t.pose10 + rng.normal(0, 0.05, 10)
            n = t.normal + rng.normal(0, 0.1, 3)
            pred.append(SupervisionTuple(p, n, 1 - t.contact))
        base1 = loss(pred, gt, 1.0, 0.0, 0.0)
        base2 = loss(pred, gt, 0.0, 1.0, 0.0)
        base3 = loss(pred, gt, 0.0, 0.0, 1.0)
        combined = loss(pred, gt, l1, l2, l3)
        assert combined == pytest.approx(l1 * base1 + l2 * base2 + l3 * base3, rel=1e-9)
        assert combined >= 0.0


def test_mean_loss_monotone_in_position_noise():
    demo = make_demo(40, contact_from=10)
    grid = [0.0, 0.002, 0.01]
    means = []
    for std in grid:
        vals = []
        for seed in range(100):
            chunk = predict(0, demo, NoiseSpec(pos_std=std, seed=seed), horizon=16)
            vals.append(loss(list(chunk), demo[:16]))
        means.append(np.mean(vals))
    assert means[0] <= means[1] <= means[2]
    assert means[0] == pytest.approx(0.0)


def test_zero_noise_prediction_scores_zero():
    demo = make_demo(30, contact_from=5)
    chunk = predict(3, demo, NoiseSpec(), horizon=16)
    assert loss(list(chunk), demo[3:19]) == 0.0
