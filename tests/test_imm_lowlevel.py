"""Tests for IMM low-level pieces: integral images, Hessian, k-d tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ImageError
from repro.imm import (
    FastHessianDetector,
    Image,
    KDTree,
    SceneGenerator,
    box_sum,
    hessian_response,
    integral_image,
)
from repro.imm.integral import PaddedIntegral, box_sum_map


class TestIntegralImage:
    def test_total_sum(self):
        rng = np.random.default_rng(0)
        pixels = rng.uniform(size=(13, 7))
        ii = integral_image(pixels)
        assert ii[-1, -1] == pytest.approx(pixels.sum())

    def test_padding_row_and_column_zero(self):
        ii = integral_image(np.ones((4, 4)))
        assert np.all(ii[0] == 0) and np.all(ii[:, 0] == 0)

    def test_box_sum_matches_slice(self):
        rng = np.random.default_rng(1)
        pixels = rng.uniform(size=(20, 30))
        ii = integral_image(pixels)
        assert box_sum(ii, 3, 5, 6, 7) == pytest.approx(pixels[3:9, 5:12].sum())

    def test_box_sum_clips_out_of_bounds(self):
        pixels = np.ones((5, 5))
        ii = integral_image(pixels)
        assert box_sum(ii, -10, -10, 100, 100) == pytest.approx(25.0)
        assert box_sum(ii, -3, 0, 3, 5) == pytest.approx(0.0)

    def test_rejects_non_2d(self):
        with pytest.raises(ImageError):
            integral_image(np.zeros(5))

    @given(
        st.integers(-5, 25), st.integers(-5, 25),
        st.integers(1, 12), st.integers(1, 12),
    )
    @settings(deadline=None)
    def test_box_sum_property(self, y0, x0, h, w):
        rng = np.random.default_rng(42)
        pixels = rng.uniform(size=(18, 18))
        ii = integral_image(pixels)
        ys, ye = np.clip([y0, y0 + h], 0, 18)
        xs, xe = np.clip([x0, x0 + w], 0, 18)
        assert box_sum(ii, y0, x0, h, w) == pytest.approx(pixels[ys:ye, xs:xe].sum())

    def test_box_sum_map_matches_scalar(self):
        rng = np.random.default_rng(2)
        pixels = rng.uniform(size=(16, 12))
        ii = integral_image(pixels)
        sums = box_sum_map(ii, -2, 1, 4, 3)
        for y in range(16):
            for x in range(12):
                assert sums[y, x] == pytest.approx(box_sum(ii, y - 2, x + 1, 4, 3))

    @given(
        st.integers(8, 96), st.integers(8, 96), st.integers(0, 2**32 - 1),
        st.integers(-80, 80), st.integers(-80, 80),
        st.integers(-80, 80), st.integers(-80, 80),
    )
    @settings(deadline=None, max_examples=60)
    def test_box_sum_map_is_box_sum_exactly(self, rows, cols, seed, dy, dx, h, w):
        # Boxes that overhang the image on every side (filter 51 on a 64-px
        # tile does) must clip exactly as the scalar does: ==, not approx.
        ii = integral_image(np.random.default_rng(seed).uniform(size=(rows, cols)))
        sums = box_sum_map(ii, dy, dx, h, w)
        assert sums.shape == (rows, cols)
        expected = [
            [box_sum(ii, y + dy, x + dx, h, w) for x in range(cols)] for y in range(rows)
        ]
        assert sums.tolist() == expected

    def test_padded_integral_rejects_reach_past_its_pad(self):
        padded = PaddedIntegral(integral_image(np.ones((64, 64))), 26)
        padded.box_sum_map(-25, -8, 51, 17)
        with pytest.raises(ImageError):
            padded.box_sum_map(-27, 0, 9, 9)
        with pytest.raises(ImageError):
            padded.box_sum_map(0, 10, 9, 17)


class TestHessian:
    def test_response_peaks_on_blob(self):
        # A bright Gaussian blob centered at (32, 32).
        yy, xx = np.mgrid[0:64, 0:64]
        pixels = np.exp(-((yy - 32) ** 2 + (xx - 32) ** 2) / (2 * 4.0**2))
        ii = integral_image(pixels)
        response = hessian_response(ii, 9)
        peak = np.unravel_index(np.argmax(response), response.shape)
        assert abs(peak[0] - 32) <= 2 and abs(peak[1] - 32) <= 2

    def test_flat_image_near_zero(self):
        # Interior response must vanish; borders clip boxes and may not.
        ii = integral_image(np.full((40, 40), 0.5))
        response = hessian_response(ii, 9)
        assert np.abs(response[9:-9, 9:-9]).max() < 1e-9

    def test_invalid_filter_size(self):
        ii = integral_image(np.zeros((20, 20)))
        with pytest.raises(ImageError):
            hessian_response(ii, 10)
        with pytest.raises(ImageError):
            hessian_response(ii, 3)

    def test_detector_finds_blob(self):
        yy, xx = np.mgrid[0:80, 0:80]
        pixels = 0.5 + 0.5 * np.exp(-((yy - 40) ** 2 + (xx - 40) ** 2) / (2 * 5.0**2))
        keypoints = FastHessianDetector(threshold=1e-5).detect(Image(pixels))
        assert keypoints
        best = keypoints[0]
        assert abs(best.y - 40) <= 3 and abs(best.x - 40) <= 3
        assert best.sign == -1  # bright blob on dark background: negative trace

    def test_detector_orders_by_response(self):
        image = SceneGenerator(seed=3).scene(0)
        keypoints = FastHessianDetector().detect(image)
        responses = [kp.response for kp in keypoints]
        assert responses == sorted(responses, reverse=True)

    def test_max_keypoints_cap(self):
        image = SceneGenerator(seed=3).scene(1)
        capped = FastHessianDetector(max_keypoints=5).detect(image)
        assert len(capped) <= 5

    def test_detector_needs_three_scales(self):
        with pytest.raises(ImageError):
            FastHessianDetector(filter_sizes=(9, 15))

    def test_keypoints_repeatable_under_noise(self):
        generator = SceneGenerator(seed=5)
        detector = FastHessianDetector()
        clean = detector.detect(generator.scene(2))
        noisy = detector.detect(generator.query_for(2, shift=0))
        # Most strong keypoints should reappear within 2px.
        clean_xy = {(round(kp.y), round(kp.x)) for kp in clean[:20]}
        reappeared = sum(
            1
            for kp in noisy
            if any(abs(kp.y - y) <= 2 and abs(kp.x - x) <= 2 for y, x in clean_xy)
        )
        assert reappeared >= 10


class TestKDTree:
    def _data(self, n=200, d=8, seed=0):
        return np.random.default_rng(seed).normal(size=(n, d))

    def test_exact_matches_bruteforce(self):
        data = self._data()
        tree = KDTree(data)
        rng = np.random.default_rng(1)
        for _ in range(20):
            query = rng.normal(size=8)
            distances, indices = tree.query(query, k=3)
            brute = np.linalg.norm(data - query, axis=1)
            expected = np.argsort(brute)[:3]
            assert list(indices) == list(expected)
            assert np.allclose(distances, brute[expected])

    def test_approximate_recall_reasonable(self):
        data = self._data(500)
        tree = KDTree(data)
        rng = np.random.default_rng(2)
        hits = 0
        for _ in range(50):
            query = rng.normal(size=8)
            _, indices = tree.query(query, k=1, max_checks=64)
            truth = int(np.argmin(np.linalg.norm(data - query, axis=1)))
            hits += int(indices[0] == truth)
        assert hits >= 35  # >=70% recall with a 64-check budget

    def test_k_larger_than_data(self):
        data = self._data(3)
        _, indices = KDTree(data).query(np.zeros(8), k=10)
        assert len(indices) == 3

    def test_duplicate_points(self):
        data = np.zeros((10, 4))
        tree = KDTree(data)
        distances, indices = tree.query(np.zeros(4), k=2)
        assert np.allclose(distances, 0.0)
        assert len(indices) == 2

    def test_validation(self):
        with pytest.raises(ImageError):
            KDTree(np.zeros((0, 3)))
        with pytest.raises(ImageError):
            KDTree(np.zeros((5, 3)), leaf_size=0)
        tree = KDTree(self._data(10))
        with pytest.raises(ImageError):
            tree.query(np.zeros(3))
        with pytest.raises(ImageError):
            tree.query(np.zeros(8), k=0)

    @given(st.integers(0, 10_000))
    @settings(deadline=None, max_examples=25)
    def test_nearest_is_truly_nearest(self, seed):
        data = self._data(64, 4, seed=3)
        tree = KDTree(data, leaf_size=4)
        query = np.random.default_rng(seed).normal(size=4)
        _, indices = tree.query(query, k=1)
        brute = int(np.argmin(np.linalg.norm(data - query, axis=1)))
        assert indices[0] == brute
