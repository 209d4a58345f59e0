import numpy as np
import pytest
from scipy.ndimage import uniform_filter

from srp.arrayio import ArrayFileError, read_array, write_array
from srp.metrics import magnitude, mean_squared_error, psnr, psnr_db, ssim


class TestPsnr:
    def test_identical_inputs_capped_with_flag(self):
        x = np.random.default_rng(0).standard_normal(100)
        value = psnr(x, x, peak=1.0)
        assert value.db == 99.0
        assert value.capped

    def test_twenty_db(self):
        # peak 1, MSE 0.01
        x_true = np.zeros(100)
        x_hat = np.full(100, 0.1)
        value = psnr(x_hat, x_true, peak=1.0)
        np.testing.assert_allclose(value.db, 20.0, atol=1e-12)
        assert not value.capped

    def test_thirty_db(self):
        x_true = np.zeros(1000)
        x_hat = np.full(1000, np.sqrt(0.001))
        value = psnr(x_hat, x_true, peak=1.0)
        np.testing.assert_allclose(value.db, 30.0, atol=1e-10)

    def test_overflowing_error_reads_minus_inf_quietly(self):
        # (1e200)² overflows, so the squared error is inf and the PSNR -inf
        # dB, with no RuntimeWarning (the suite raises those as errors)
        value = psnr(np.array([1e200, 0.0]), np.zeros(2), peak=1.0)
        assert value.db == -np.inf and not value.capped

    def test_rows_follow_the_one_image_rule(self):
        # an exact match, a value past the cap, an ordinary value and an
        # overflow: each row of a block is psnr(...) of that row bit for bit
        rng = np.random.default_rng(6)
        truth = rng.standard_normal(50)
        rows = np.stack([truth, truth + 1e-7, truth + 0.1 * rng.standard_normal(50),
                         np.r_[1e200, truth[1:]]])
        peaks = np.array([2.5, 2.5, 3.0, 1.0])
        db, capped = psnr_db(mean_squared_error(rows, truth), peaks)
        assert capped.tolist() == [True, True, False, False]
        assert db[1] == 99.0 and 10 * np.log10(2.5 ** 2 / np.mean((rows[1] - truth) ** 2)) > 99
        assert db[3] == -np.inf
        for row, peak, got, flag in zip(rows, peaks, db, capped):
            assert (got, flag) == psnr(row, truth, peak)

    def test_exactly_99_db_is_capped(self):
        mse = 1.2589254117941638e-10  # 10 log10(1 / mse) is 99.0 exactly
        assert 10.0 * np.log10(1.0 / mse) == 99.0
        db, capped = psnr_db(mse, 1.0)
        assert db == 99.0 and capped

    def test_shape_and_peak_validation(self):
        with pytest.raises(ValueError):
            psnr(np.zeros(3), np.zeros(4), peak=1.0)
        with pytest.raises(ValueError):
            psnr(np.zeros(3), np.zeros(3), peak=0.0)


class TestSsim:
    def test_identical_is_exactly_one(self):
        img = np.random.default_rng(1).standard_normal((16, 16))
        assert ssim(img, img, peak=float(np.max(np.abs(img)))) == 1.0

    def test_anticorrelated_negative_but_above_minus_one(self):
        # period-7/3 sinusoid: exactly zero mean over every 7-wide window, so
        # the negative structure term dominates
        i = np.arange(21)[:, None] * np.ones(21)[None, :]
        img = np.sin(2 * np.pi * 3 * i / 7)
        value = ssim(-img, img, peak=1.0)
        assert -1.0 < value < 0.0

    def test_constant_images_collapse_to_luminance_term(self):
        peak = 1.0
        m1, m2 = 0.25, 1.0
        a = np.full((12, 12), m1)
        b = np.full((12, 12), m2)
        c1 = (0.01 * peak) ** 2
        expected = (2 * m1 * m2 + c1) / (m1 ** 2 + m2 ** 2 + c1)
        np.testing.assert_allclose(ssim(a, b, peak=peak), expected, atol=1e-12)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            ssim(np.zeros(10), np.zeros(10), peak=1.0)

    @pytest.mark.parametrize("peak", [1e80, 6.7e78, np.float64(1e80), 1e200])
    def test_a_peak_whose_constants_overflow_is_refused(self, peak):
        # C1 C2 = (0.01 peak)² (0.03 peak)² overflows: every window would be nan
        a = np.random.default_rng(0).random((8, 8))
        with pytest.raises(ValueError, match="overflow"):
            ssim(a, a + 0.01, peak)

    @pytest.mark.parametrize("peak", [1.0, 0.37, np.float64(2.5), 1e77, 6.6e78])
    def test_peaks_below_the_limit_keep_their_bits(self, peak):
        # the unguarded formula is the reference, bit for bit
        rng = np.random.default_rng(1)
        a, b = rng.random((9, 8)), rng.random((9, 8))
        c1, c2 = (0.01 * peak) ** 2, (0.03 * peak) ** 2
        uf = lambda img: uniform_filter(img, size=7, mode="constant")
        mu_a, mu_b = uf(a), uf(b)
        var_a, var_b = uf(a * a) - mu_a * mu_a, uf(b * b) - mu_b * mu_b
        cov = uf(a * b) - mu_a * mu_b
        smap = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
                / ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)))
        want = float(np.mean(smap[3:6, 3:5]))
        assert ssim(a, b, peak) == want

    def test_window_must_fit(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((4, 4)), np.zeros((4, 4)), peak=1.0)


class TestMagnitude:
    def test_interleaved_magnitude(self):
        v = np.array([3.0, 4.0, 0.0, -2.0])
        np.testing.assert_allclose(magnitude(v), [5.0, 2.0])


class TestArrayFile:
    def test_roundtrip_vector(self, tmp_path):
        path = tmp_path / "v.f64"
        data = np.random.default_rng(3).standard_normal(17)
        write_array(path, data)
        np.testing.assert_array_equal(read_array(path), data)

    def test_roundtrip_image(self, tmp_path):
        path = tmp_path / "img.f64"
        data = np.random.default_rng(4).standard_normal((5, 7))
        write_array(path, data)
        np.testing.assert_array_equal(read_array(path), data)

    def test_roundtrip_channels(self, tmp_path):
        path = tmp_path / "multi.f64"
        data = np.random.default_rng(5).standard_normal((4, 6, 3))
        write_array(path, data)
        np.testing.assert_array_equal(read_array(path), data)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.f64"
        np.arange(20.0).tofile(path)
        with pytest.raises(ArrayFileError, match="magic"):
            read_array(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "trunc.f64"
        np.arange(3.0).tofile(path)
        with pytest.raises(ArrayFileError):
            read_array(path)

    @pytest.mark.parametrize("index,value", [(2, np.nan), (2, -1.0), (2, 2.5), (2, np.inf),
                                             (3, np.nan), (3, -4.0), (4, 0.5), (4, -np.inf)])
    def test_malformed_dimensions_rejected(self, tmp_path, index, value):
        path = tmp_path / "dims.f64"
        write_array(path, np.ones((2, 3)))
        raw = np.fromfile(path, dtype="<f8")
        raw[index] = value
        raw.tofile(path)
        with pytest.raises(ArrayFileError, match="dimensions must be non-negative integers"):
            read_array(path)
