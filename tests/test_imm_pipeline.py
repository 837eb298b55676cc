"""Tests for the IMM pipeline: descriptors, matching, database retrieval."""

import numpy as np
import pytest

from repro.errors import ImageError
from repro.imm import (
    DESCRIPTOR_SIZE,
    AnnMatcher,
    Image,
    ImageDatabase,
    SceneGenerator,
    Surf,
    describe_keypoints,
    match_bruteforce,
)
from repro.imm.image import QUERY_NOISE


@pytest.fixture(scope="module")
def generator():
    return SceneGenerator(seed=11)


@pytest.fixture(scope="module")
def database(generator):
    return ImageDatabase.with_scenes(5, generator=generator)


class TestImageContainer:
    def test_validation(self):
        with pytest.raises(ImageError):
            Image(np.zeros(4))
        with pytest.raises(ImageError):
            Image(np.zeros((0, 4)))

    def test_tiles_cover_image(self, generator):
        image = generator.scene(0)
        tiles = image.tiles(64)
        total = sum(t.pixels.size for _, _, t in tiles)
        assert total == image.pixels.size

    def test_tiles_respect_minimum(self, generator):
        with pytest.raises(ImageError):
            generator.scene(0).tiles(10)

    def test_scene_determinism(self, generator):
        a = generator.scene(3).pixels
        b = SceneGenerator(seed=11).scene(3).pixels
        assert np.array_equal(a, b)

    def test_query_differs_from_scene(self, generator):
        scene = generator.scene(1).pixels
        query = generator.query_for(1).pixels
        assert not np.array_equal(scene, query)
        assert scene.shape == query.shape


class TestDescriptors:
    def test_descriptor_shape_and_norm(self, generator):
        image = generator.scene(0)
        surf = Surf()
        features = surf.extract(image)
        assert features.descriptors.shape == (len(features), DESCRIPTOR_SIZE)
        norms = np.linalg.norm(features.descriptors, axis=1)
        assert np.allclose(norms[norms > 0], 1.0)

    def test_empty_keypoints(self, generator):
        descriptors = describe_keypoints(generator.scene(0), [])
        assert descriptors.shape == (0, DESCRIPTOR_SIZE)

    def test_descriptor_stable_under_noise(self, generator):
        surf = Surf()
        clean = surf.extract(generator.scene(2))
        pixels = generator.scene(2).pixels
        noise = np.random.default_rng(2).normal(0.0, QUERY_NOISE, pixels.shape)
        noisy = surf.extract(Image(np.clip(pixels + noise, 0.0, 1.0)))
        matches = match_bruteforce(noisy.descriptors, clean.descriptors)
        assert len(matches) >= min(len(noisy), len(clean)) // 3


class TestMatching:
    def test_bruteforce_identity(self):
        rng = np.random.default_rng(0)
        descriptors = rng.normal(size=(20, 8))
        descriptors /= np.linalg.norm(descriptors, axis=1, keepdims=True)
        matches = match_bruteforce(descriptors, descriptors, ratio=0.9)
        assert all(m.query_index == m.database_index for m in matches)
        assert len(matches) == 20

    def test_bruteforce_empty(self):
        assert match_bruteforce(np.zeros((0, 8)), np.zeros((5, 8))) == []
        assert match_bruteforce(np.zeros((5, 8)), np.zeros((0, 8))) == []

    def test_ratio_validation(self):
        with pytest.raises(ImageError):
            match_bruteforce(np.zeros((1, 4)), np.zeros((2, 4)), ratio=0)
        with pytest.raises(ImageError):
            AnnMatcher(np.zeros((2, 4)), ratio=2.0)

    @pytest.mark.parametrize("max_checks", [0, -5])
    def test_check_budget_validation(self, max_checks):
        # A budget below one row examined nothing: every query went
        # unmatched with no error.  None stays exhaustive.
        with pytest.raises(ImageError):
            AnnMatcher(np.zeros((2, 4)), max_checks=max_checks)
        database = ImageDatabase(max_checks=max_checks)
        database.add(SceneGenerator().scene(0))
        with pytest.raises(ImageError):
            database.match(SceneGenerator().query_for(0))
        assert AnnMatcher(np.eye(4), max_checks=None).match(np.eye(4)[:1])[0].database_index == 0

    def test_ann_agrees_with_bruteforce_mostly(self):
        rng = np.random.default_rng(3)
        database = rng.normal(size=(100, 16))
        query = database[:20] + rng.normal(0, 0.01, (20, 16))
        brute = match_bruteforce(query, database)
        ann = AnnMatcher(database, max_checks=None).match(query)
        brute_pairs = {(m.query_index, m.database_index) for m in brute}
        ann_pairs = {(m.query_index, m.database_index) for m in ann}
        assert len(brute_pairs & ann_pairs) >= int(0.9 * len(brute_pairs))


class TestImageDatabase:
    def test_all_queries_match_their_scene(self, generator, database):
        for index in range(database.n_images):
            result = database.match(generator.query_for(index))
            assert result.image_name == f"scene-{index}"
            assert result.votes > 0

    def test_match_metadata(self, generator, database):
        result = database.match(generator.query_for(0))
        assert result.votes <= result.total_matches
        assert result.n_query_keypoints > 0

    def test_empty_database_raises(self, generator):
        empty = ImageDatabase()
        with pytest.raises(ImageError):
            empty.match(generator.query_for(0))

    def test_profiler_sections(self, generator, database, sections_of):
        seconds = sections_of(lambda: database.match(generator.query_for(1)))
        assert {"imm.fe", "imm.fd", "imm.ann"} == set(seconds)

    def test_incremental_add_invalidates_matcher(self, generator):
        database = ImageDatabase.with_scenes(2, generator=generator)
        before = database.match(generator.query_for(0)).image_name
        database.add(generator.scene(9))
        after = database.match(generator.query_for(0)).image_name
        assert before == after == "scene-0"
        assert database.n_images == 3

    def test_blank_image_rejected(self):
        database = ImageDatabase()
        with pytest.raises(ImageError):
            database.add(Image(np.full((80, 80), 0.5), name="flat"))
