import numpy as np
import pytest

from natmu import masks
from natmu.errors import ValidationError


class TestGradualBase:
    def test_closed_form_columns_32(self):
        # edge columns 0, center pair 1, second column 2/30
        v = masks.gradual_base(32, 32)
        assert (v[:, 0] == 0.0).all()
        assert (v[:, 31] == 0.0).all()
        assert (v[:, 15] == 1.0).all()
        assert (v[:, 16] == 1.0).all()
        assert (v[:, 1] == np.float32(2.0 / 30.0)).all()

    def test_full_ramp_against_formula(self):
        w = 32
        v = masks.gradual_base(4, w)
        for i in range(1, w + 1):
            if i <= w // 2:
                want = 2.0 * (i - 1) / (w - 2)
            else:
                want = 2.0 * (w - i) / (w - 2)
            assert v[:, i - 1] == pytest.approx(want, abs=1e-7)

    def test_left_right_symmetry(self):
        v = masks.gradual_base(8, 32)
        for i in range(32):
            assert np.array_equal(v[:, i], v[:, 31 - i])

    def test_rows_constant(self):
        v = masks.gradual_base(16, 10)
        assert (v == v[0]).all()

    def test_values_in_unit_interval_odd_and_even(self):
        for w in (3, 5, 7, 16, 31, 32):
            v = masks.gradual_base(4, w)
            assert v.min() >= 0.0 and v.max() <= 1.0

    def test_width_below_three_rejected(self):
        with pytest.raises(ValidationError):
            masks.gradual_base(4, 2)


class TestComplementRotate:
    def test_complement_of_zeros_is_ones(self):
        zeros = np.zeros((3, 4), dtype=np.float32)
        assert (masks.complement(zeros) == 1.0).all()

    def test_complement_involution_exact_on_dyadic_masks(self):
        for m in (masks.constant_masks(6, 6)[0],
                  masks.cutmix_corner_masks(8, 8, 3)[2],
                  np.array([[0.0, 0.25, 0.5, 1.0]], dtype=np.float32)):
            twice = masks.complement(masks.complement(m))
            assert np.array_equal(twice, m)

    def test_complement_involution_within_rounding_generally(self):
        # values near 0 sit on a finer f32 grid than 1 - value can represent,
        # so double complement is exact only up to one ulp of 1 off the
        # dyadic grid (the gradual ramp's 2/30 column is the canonical case)
        rng = np.random.default_rng(0)
        for m in (masks.gradual_base(8, 32),
                  rng.random((5, 6)).astype(np.float32)):
            twice = masks.complement(masks.complement(m))
            np.testing.assert_allclose(twice, m, atol=2.0 ** -24)

    def test_complement_of_gradual_edge_column(self):
        m2 = masks.complement(masks.gradual_base(32, 32))
        assert (m2[:, 0] == 1.0).all()

    def test_rotate_four_times_identity(self):
        rng = np.random.default_rng(1)
        m = rng.random((7, 7)).astype(np.float32)
        out = m
        for _ in range(4):
            out = masks.rotate90(out)
        assert np.array_equal(out, m)

    def test_rotated_gradual_first_row_zero(self):
        m3 = masks.rotate90(masks.gradual_base(32, 32))
        assert (m3[0] == 0.0).all()
        # column-constant input becomes row-constant
        assert (m3 == m3[:, :1]).all()

    def test_constant_square_mask_unchanged(self):
        m = np.full((6, 6), 0.5, dtype=np.float32)
        assert np.array_equal(masks.rotate90(m), m)

    def test_rotation_direction_irrelevant_for_gradual_family(self):
        # the ramp is left-right symmetric, so both quarter turns agree
        m1 = masks.gradual_base(32, 32)
        ccw = np.rot90(m1)
        cw = np.rot90(m1, -1)
        assert np.array_equal(ccw, cw)


class TestScale:
    def test_zero_delta_identity(self):
        rng = np.random.default_rng(2)
        m = rng.random((4, 5)).astype(np.float32)
        assert np.array_equal(masks.scale(m, 0.0), m)

    def test_delta_one_saturates(self):
        rng = np.random.default_rng(3)
        m = rng.random((4, 5)).astype(np.float32)
        assert (masks.scale(m, 1.0) == 1.0).all()

    def test_shift_arithmetic(self):
        m = np.full((2, 2), 0.5, dtype=np.float32)
        assert masks.scale(m, -0.2) == pytest.approx(0.3, abs=1e-7)

    def test_output_clipped_for_random_deltas(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            m = rng.random((3, 6)).astype(np.float32)
            out = masks.scale(m, float(rng.uniform(-2, 2)))
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_non_finite_delta_rejected(self):
        m = masks.gradual_base(4, 4)
        with pytest.raises(ValidationError):
            masks.scale(m, float("nan"))


class TestFourMasks:
    def test_complement_pair_sums_to_one_before_scaling(self):
        m1, m2, _, _ = masks.four_masks(32, 32, 0.0)
        assert (m1 + m2 == np.float32(1.0)).all()

    def test_sum_identity_broken_after_scaling(self):
        m1, m2, _, _ = masks.four_masks(32, 32, -0.2)
        assert not np.allclose(m1 + m2, 1.0)

    def test_third_mask_is_rotation_of_first(self):
        m1, _, m3, m4 = masks.four_masks(16, 16, 0.0)
        assert np.array_equal(m3, np.rot90(m1))
        assert np.array_equal(m4, np.rot90(1.0 - m1))

    def test_reference_delta_keeps_unit_interval(self):
        # sample-wise runs use a small negative shift
        for m in masks.four_masks(32, 32, -0.031):
            assert m.min() >= 0.0 and m.max() <= 1.0
        center = masks.four_masks(32, 32, -0.031)[0][:, 15]
        assert center == pytest.approx(1.0 - 0.031, abs=1e-6)


class TestOtherFamilies:
    def test_constant_zero_delta(self):
        for m in masks.constant_masks(8, 8, 0.0):
            assert (m == np.float32(0.5)).all()

    def test_cutmix_zero_edge_all_ones(self):
        for m in masks.cutmix_corner_masks(8, 8, 0):
            assert (m == 1.0).all()

    def test_cutmix_full_edge_all_zeros(self):
        for m in masks.cutmix_corner_masks(8, 8, 8):
            assert (m == 0.0).all()

    def test_cutmix_patch_positions(self):
        tl, tr, bl, br = masks.cutmix_corner_masks(6, 6, 2)
        assert (tl[:2, :2] == 0.0).all() and tl.sum() == 32
        assert (tr[:2, 4:] == 0.0).all()
        assert (bl[4:, :2] == 0.0).all()
        assert (br[4:, 4:] == 0.0).all()

    def test_cutmix_bad_edge_rejected(self):
        with pytest.raises(ValidationError):
            masks.cutmix_corner_masks(4, 4, 5)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValidationError):
            masks.build_mask_set("learned", 8, 8)

    @pytest.mark.parametrize("family", [masks.GRADUAL, masks.CONSTANT])
    def test_edge_for_a_family_without_one_rejected(self, family):
        with pytest.raises(ValidationError, match="takes no edge length, got 2"):
            masks.build_mask_set(family, 8, 8, edge_len=2)


def test_dump_csv_roundtrip(tmp_path):
    mask_set = masks.four_masks(4, 4, -0.031)
    paths = masks.dump_csv(mask_set, str(tmp_path / "masks"))
    assert len(paths) == 4
    rows = (tmp_path / "masks_1.csv").read_text().splitlines()
    parsed = np.array([[float(x) for x in row.split(",")] for row in rows])
    np.testing.assert_allclose(parsed, mask_set[0], atol=5e-7)
