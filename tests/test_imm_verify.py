"""Tests for RANSAC geometric verification."""

import pytest

from repro.errors import ImageError
from repro.imm import ImageDatabase, SceneGenerator
from repro.imm.hessian import Keypoint
from repro.imm.matcher import DescriptorMatch
from repro.imm.verify import ransac_translation


def _kp(y, x, scale=1.2):
    return Keypoint(y=y, x=x, scale=scale, response=1.0, sign=1)


class TestRansacTranslation:
    def test_pure_translation_all_inliers(self):
        query = [_kp(10, 10), _kp(20, 30), _kp(40, 15)]
        database = [_kp(13, 12), _kp(23, 32), _kp(43, 17)]  # +3, +2
        matches = [DescriptorMatch(i, i, 0.1) for i in range(3)]
        result = ransac_translation(query, database, matches)
        assert result.inliers == 3
        assert result.translation == pytest.approx((3.0, 2.0))
        assert result.inlier_ratio == 1.0

    def test_outlier_rejected(self):
        query = [_kp(10, 10), _kp(20, 30), _kp(40, 15), _kp(5, 5)]
        database = [_kp(13, 12), _kp(23, 32), _kp(43, 17), _kp(90, 90)]
        matches = [DescriptorMatch(i, i, 0.1) for i in range(4)]
        result = ransac_translation(query, database, matches)
        assert result.inliers == 3
        assert result.total == 4

    def test_scale_mismatch_rejected(self):
        query = [_kp(10, 10, scale=1.2), _kp(20, 20, scale=1.2)]
        database = [_kp(12, 12, scale=6.0), _kp(22, 22, scale=1.2)]
        matches = [DescriptorMatch(0, 0, 0.1), DescriptorMatch(1, 1, 0.1)]
        result = ransac_translation(query, database, matches, tolerance=3.0)
        assert result.inliers == 1

    def test_empty_matches(self):
        result = ransac_translation([], [], [])
        assert result.inliers == 0 and result.total == 0
        assert result.inlier_ratio == 0.0

    def test_validation(self):
        with pytest.raises(ImageError):
            ransac_translation([], [], [], tolerance=0.0)
        with pytest.raises(ImageError):
            ransac_translation([], [], [], scale_tolerance=0.5)

    def test_deterministic_for_seed(self):
        query = [_kp(i, 2 * i) for i in range(10)]
        database = [_kp(i + 5, 2 * i + 1) for i in range(10)]
        matches = [DescriptorMatch(i, i, 0.1) for i in range(10)]
        a = ransac_translation(query, database, matches, seed=3)
        b = ransac_translation(query, database, matches, seed=3)
        assert a == b


class TestVerifiedMatching:
    @pytest.fixture(scope="class")
    def generator(self):
        return SceneGenerator(seed=23)

    @pytest.fixture(scope="class")
    def database(self, generator):
        return ImageDatabase.with_scenes(5, generator=generator)

    def test_verified_match_correct_and_has_inliers(self, generator, database):
        for index in range(3):
            result = database.match(generator.query_for(index), verify=True)
            assert result.image_name == f"scene-{index}"
            assert result.inliers > 0
            assert result.inliers <= result.total_matches

    def test_unverified_reports_zero_inliers(self, generator, database):
        result = database.match(generator.query_for(0), verify=False)
        assert result.inliers == 0

    def test_verification_profiled(self, generator, database, sections_of):
        seconds = sections_of(
            lambda: database.match(generator.query_for(1), verify=True)
        )
        assert "imm.verify" in seconds
