import numpy as np
import pytest
from numpy.testing import assert_allclose

from admitsim.errors import EndOfDemo
from admitsim.expert import SupervisionTuple
from admitsim.policy import DEFAULT_HORIZON, NoiseSpec, predict


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
        chunk = predict(4, demo, NoiseSpec())
        assert len(chunk) == DEFAULT_HORIZON == 16
        for k in range(16):
            assert_allclose(chunk[k].pose10, demo[4 + k].pose10)
            assert chunk[k].contact == demo[4 + k].contact

    def test_pads_by_repeating_last(self):
        demo = make_demo(10)
        chunk = predict(8, demo, NoiseSpec())
        for k in range(2, 16):
            assert_allclose(chunk[k].pose10, demo[-1].pose10)

    def test_end_of_demo_raises(self):
        demo = make_demo(10)
        with pytest.raises(EndOfDemo):
            predict(10, demo, NoiseSpec())

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
        chunk = [t for t0 in range(0, 64, DEFAULT_HORIZON) for t in predict(t0, demo, spec)]
        flipped = [t for t in chunk if t.contact == 1]
        assert flipped  # with p=0.5 over 64 steps some flips occur
        for t in flipped:
            assert abs(np.linalg.norm(t.normal) - 1.0) < 1e-9

    def test_rotation_is_the_demos_under_rot_noise(self):
        # rot_std only advances the noise generator: every predicted 6D
        # rotation is its demo tuple's, bit for bit.
        from admitsim.geometry import quat_from_axis_angle, rot6d_encode
        demo = [SupervisionTuple(np.concatenate([[0.01 * i, 0.0, 0.1],
                                                 rot6d_encode(quat_from_axis_angle((0.0, 1.0, 0.0),
                                                                                   0.1 * i)),
                                                 [1.0]]), np.zeros(3), 0)
                for i in range(20)]
        for spec in (NoiseSpec(rot_std=0.3, seed=7),
                     NoiseSpec(pos_std=0.01, rot_std=0.05, normal_cone_std=0.1,
                               contact_flip_prob=0.2, seed=9)):
            for t0 in (0, 8):
                chunk = predict(t0, demo, spec)
                for k, t in enumerate(chunk):
                    src = demo[min(t0 + k, len(demo) - 1)]
                    assert t.pose10[3:9].tobytes() == src.pose10[3:9].tobytes()


def position_error(chunk, gt):
    """Mean absolute error of the predicted positions against the demo's."""
    return float(np.mean([np.abs(p.pose10[:3] - g.pose10[:3]).mean() for p, g in zip(chunk, gt)]))


def test_mean_position_error_grows_with_position_noise():
    demo = make_demo(40, contact_from=10)
    means = []
    for std in [0.0, 0.002, 0.01]:
        means.append(np.mean([position_error(predict(0, demo, NoiseSpec(pos_std=std, seed=seed)),
                                             demo[:16]) for seed in range(100)]))
    assert means[0] == 0.0 < means[1] < means[2]


def test_zero_noise_prediction_has_zero_position_error():
    demo = make_demo(30, contact_from=5)
    chunk = predict(3, demo, NoiseSpec())
    assert position_error(chunk, demo[3:19]) == 0.0
