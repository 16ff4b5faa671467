import numpy as np
import pytest

from admitsim.errors import EndOfDemo
from admitsim.expert import RECORD_DIM, SupervisionRecords
from admitsim.policy import DEFAULT_HORIZON, NoiseSpec, predict


def make_demo(n, contact_from=None):
    """The records of n steps along x, identity rotation, gripper closed; in
    contact from step contact_from on, with the normal +z."""
    block = np.zeros((n, RECORD_DIM))
    block[:, 0] = 0.01 * np.arange(n)
    block[:, [3, 7, 9]] = 1.0  # rot6d of the identity, gripper
    if contact_from is not None:
        block[contact_from:, 12] = 1.0  # the normal
        block[contact_from:, 13] = 1.0  # the contact flag
    return SupervisionRecords(block)


class TestPredict:
    def test_zero_noise_exact_slice(self):
        demo = make_demo(40, contact_from=10)
        chunk = predict(4, demo, NoiseSpec())
        assert len(chunk) == DEFAULT_HORIZON == 16
        for k in range(16):
            row = demo.block[4 + k].tolist()
            assert chunk[k].x_cmd == tuple(row[:3]) and chunk[k].gripper == row[9]
            assert chunk[k].n == tuple(row[10:13]) and chunk[k].c == row[13]
            assert type(chunk[k].c) is int

    def test_pads_by_repeating_last(self):
        demo = make_demo(10)
        chunk = predict(8, demo, NoiseSpec())
        for k in range(2, 16):
            assert chunk[k].x_cmd == tuple(demo.block[-1, :3].tolist())

    def test_end_of_demo_raises(self):
        demo = make_demo(10)
        with pytest.raises(EndOfDemo):
            predict(10, demo, NoiseSpec())

    def test_normals_remain_unit_under_cone_noise(self):
        demo = make_demo(30, contact_from=0)
        chunk = predict(0, demo, NoiseSpec(normal_cone_std=0.2, seed=3))
        for cmd in chunk:
            assert abs(np.linalg.norm(cmd.n) - 1.0) < 1e-9

    def test_deterministic_per_seed(self):
        demo = make_demo(30, contact_from=5)
        spec = NoiseSpec(pos_std=0.01, rot_std=0.05, normal_cone_std=0.1,
                         contact_flip_prob=0.2, seed=9)
        a = predict(2, demo, spec)
        b = predict(2, demo, spec)
        assert list(map(repr, a)) == list(map(repr, b))

    def test_flipped_on_contact_gets_unit_normal(self):
        demo = make_demo(64)  # never in contact
        spec = NoiseSpec(contact_flip_prob=0.5, seed=1)
        chunk = [t for t0 in range(0, 64, DEFAULT_HORIZON) for t in predict(t0, demo, spec)]
        flipped = [cmd for cmd in chunk if cmd.c == 1]
        assert flipped  # with p=0.5 over 64 steps some flips occur
        for cmd in flipped:
            assert abs(np.linalg.norm(cmd.n) - 1.0) < 1e-9


def position_error(chunk, gt):
    """Mean absolute error of the predicted positions against the demo's."""
    return float(np.mean([np.abs(np.subtract(cmd.x_cmd, row[:3])).mean()
                          for cmd, row in zip(chunk, gt)]))


def test_mean_position_error_grows_with_position_noise():
    demo = make_demo(40, contact_from=10)
    means = []
    for std in [0.0, 0.002, 0.01]:
        means.append(np.mean([position_error(predict(0, demo, NoiseSpec(pos_std=std, seed=seed)),
                                             demo.block[:16]) for seed in range(100)]))
    assert means[0] == 0.0 < means[1] < means[2]


def test_zero_noise_prediction_has_zero_position_error():
    demo = make_demo(30, contact_from=5)
    chunk = predict(3, demo, NoiseSpec())
    assert position_error(chunk, demo.block[3:19]) == 0.0
