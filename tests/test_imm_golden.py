"""Bit-identity of the whole-array IMM path against the scalar loops it replaced.

``tests/fixtures/imm_golden.json`` was written by ``compute_golden()`` running
on the per-sample scalar implementation (the commit before the whole-array
rewrite) and is never regenerated from the code under test: every digest is
a sha256 over raw float64 bytes, so a one-ulp drift anywhere in FE, FD, ANN
or verification fails here.  The scalar descriptor loop itself is kept below
as ``scalar_descriptor`` — the reference the property tests compare against
at keypoints the golden does not cover.

Regenerate (only from a commit whose output is the intended reference):
``PYTHONPATH=src python tests/test_imm_golden.py``.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.imm import (
    AnnMatcher,
    FastHessianDetector,
    ImageDatabase,
    KDTree,
    SceneGenerator,
    Surf,
    box_sum,
    describe_keypoint,
    describe_keypoints,
    integral_image,
)
from repro.imm.hessian import Keypoint

GOLDEN = Path(__file__).parent / "fixtures" / "imm_golden.json"
N_SCENES = 10

#: Orientations that put cos/sin on exact 0/±1 or a hair off it, plus a
#: generic angle: the rotated-frame rounding is most fragile there.
EDGE_ORIENTATIONS = (0.0, math.pi / 2, -math.pi / 2, math.pi, 0.3)


def digest(array) -> str:
    data = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
    return hashlib.sha256(data.tobytes()).hexdigest()


def keypoint_rows(keypoints):
    return [[kp.y, kp.x, kp.scale, kp.response, kp.sign] for kp in keypoints]


def images():
    """The ten database scenes and the ten query views the benchmark matches."""
    generator = SceneGenerator()
    scenes = generator.scenes(N_SCENES)
    queries = [generator.query_for(s, seed=100 + s) for s in range(N_SCENES)]
    return scenes, queries


def edge_keypoints(height=128, width=128):
    """Keypoints whose sample boxes clip at every border, corner and beyond,
    at every detector scale, some on .5 coordinates (round-half-even)."""
    keypoints = []
    for scale in (1.2, 2.0, 2.8, 3.6, 5.2, 6.8):
        reach = 10 * scale
        for y, x in (
            (1.0, width / 2), (height - 2.0, width / 2),
            (height / 2, 1.0), (height / 2, width - 2.0),
            (reach - 1, reach - 1), (height - reach, width - reach),
            (0.0, 0.0), (height - 1.0, width - 1.0),
            (-4.0, 20.0), (30.0, width + 5.0),
            (40.5, 77.5), (2.5, 3.5),
        ):
            keypoints.append(Keypoint(float(y), float(x), scale, 1.0, 1))
    return keypoints


def kdtree_cases():
    rng = np.random.default_rng(20150314)
    data = rng.normal(size=(500, 64))
    queries = rng.normal(size=(40, 64))
    return data, queries


def compute_golden():
    scenes, queries = images()
    golden = {"images": {}, "matches": {}, "verified": {}}

    detector = FastHessianDetector()
    upright_of = {}
    for image in scenes + queries:
        ii = integral_image(image.pixels)
        keypoints = detector.detect(image, ii=ii)
        upright_of[image.name] = describe_keypoints(image, keypoints, ii=ii, upright=True)
        golden["images"][image.name] = {
            "n_keypoints": len(keypoints),
            "keypoints": digest(keypoint_rows(keypoints)),
            "upright": digest(upright_of[image.name]),
            "oriented": digest(describe_keypoints(image, keypoints, ii=ii, upright=False)),
        }

    # FEKernel's shape: 64-px tiles under the full ladder, so filter 51's
    # boxes overhang the tile on every side.
    tiles = [tile for _, _, tile in scenes[0].tiles(64)]
    golden["tile_keypoints"] = digest(
        [row for tile in tiles for row in keypoint_rows(detector.detect(tile))]
    )

    pooled = np.vstack([upright_of[scene.name] for scene in scenes])
    matcher = AnnMatcher(pooled)
    database = ImageDatabase.with_scenes(N_SCENES)
    for query in queries:
        triples = [
            [m.query_index, m.database_index, m.distance]
            for m in matcher.match(upright_of[query.name])
        ]
        golden["matches"][query.name] = {"n": len(triples), "triples": digest(triples)}
        result = database.match(query, verify=True)
        golden["verified"][query.name] = [
            result.image_name, result.votes, result.total_matches,
            result.n_query_keypoints, result.inliers,
        ]

    ii = integral_image(scenes[0].pixels)
    edges = edge_keypoints()
    golden["edge_cases"] = {
        "oriented": digest(describe_keypoints(scenes[0], edges, ii=ii, upright=False)),
        **{
            f"orientation={angle!r}": digest(
                np.vstack([describe_keypoint(ii, kp, orientation=angle) for kp in edges])
            )
            for angle in EDGE_ORIENTATIONS
        },
    }

    data, kd_queries = kdtree_cases()
    tree = KDTree(data)
    golden["kdtree"] = {}
    for max_checks in (None, 8, 64):
        found = [tree.query(q, k=2, max_checks=max_checks) for q in kd_queries]
        golden["kdtree"][str(max_checks)] = {
            "distances": digest(np.concatenate([d for d, _ in found])),
            "indices": digest(np.concatenate([i for _, i in found])),
        }
    return golden


def test_matches_scalar_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = compute_golden()
    assert sorted(actual) == sorted(expected)
    for section in expected:
        assert actual[section] == expected[section], section


# -- the scalar loop, kept as the reference ------------------------------------------


def haar_x(ii, y, x, size):
    half = size // 2
    return box_sum(ii, y - half, x, half * 2, half) - box_sum(
        ii, y - half, x - half, half * 2, half
    )


def haar_y(ii, y, x, size):
    half = size // 2
    return box_sum(ii, y, x - half, half, half * 2) - box_sum(
        ii, y - half, x - half, half, half * 2
    )


def scalar_descriptor(ii, keypoint, orientation):
    """The per-sample descriptor loop the whole-array code replaced."""
    scale = max(int(round(keypoint.scale)), 1)
    cos_o = math.cos(orientation)
    sin_o = math.sin(orientation)
    cy, cx = keypoint.y, keypoint.x
    haar_size = 2 * scale
    descriptor = np.zeros(64)
    index = 0
    for sub_y in range(4):
        for sub_x in range(4):
            sums = np.zeros(4)
            for sample_y in range(5):
                for sample_x in range(5):
                    u = (sub_x * 5 + sample_x - 10) * scale
                    v = (sub_y * 5 + sample_y - 10) * scale
                    gauss = math.exp(-(u * u + v * v) / (2 * (3.3 * scale) ** 2))
                    y = int(round(cy + (-u * sin_o + v * cos_o)))
                    x = int(round(cx + (u * cos_o + v * sin_o)))
                    rx = haar_x(ii, y, x, haar_size)
                    ry = haar_y(ii, y, x, haar_size)
                    dx = gauss * (cos_o * rx + sin_o * ry)
                    dy = gauss * (-sin_o * rx + cos_o * ry)
                    sums[0] += dx
                    sums[1] += abs(dx)
                    sums[2] += dy
                    sums[3] += abs(dy)
            descriptor[index : index + 4] = sums
            index += 4
    norm = np.linalg.norm(descriptor)
    if norm > 0:
        descriptor /= norm
    return descriptor


@pytest.fixture(scope="module")
def scene():
    image = SceneGenerator().scene(3)
    return image, integral_image(image.pixels)


class TestBatchProperties:
    @given(
        st.floats(-12, 140), st.floats(-12, 140), st.floats(0.4, 7.5),
        st.floats(-math.pi, math.pi),
    )
    @settings(deadline=None, max_examples=40)
    def test_one_row_equals_scalar_loop(self, scene, y, x, scale, orientation):
        _, ii = scene
        keypoint = Keypoint(y, x, scale, 1.0, 1)
        expected = scalar_descriptor(ii, keypoint, orientation)
        actual = describe_keypoint(ii, keypoint, orientation=orientation)
        assert actual.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("upright", [True, False])
    def test_row_i_is_describe_keypoint_i(self, scene, upright):
        image, ii = scene
        keypoints = Surf().extract_keypoints(image, ii) + edge_keypoints()[::5]
        batch = describe_keypoints(image, keypoints, ii=ii, upright=upright)
        assert batch.shape == (len(keypoints), 64)
        for row, keypoint in zip(batch, keypoints):
            single = describe_keypoint(ii, keypoint, orientation=0.0 if upright else None)
            assert row.tobytes() == single.tobytes()

    @pytest.mark.parametrize("upright", [True, False])
    def test_permuting_keypoints_permutes_rows(self, scene, upright):
        image, ii = scene
        keypoints = Surf().extract_keypoints(image, ii)
        order = np.random.default_rng(5).permutation(len(keypoints))
        batch = describe_keypoints(image, keypoints, ii=ii, upright=upright)
        shuffled = describe_keypoints(
            image, [keypoints[i] for i in order], ii=ii, upright=upright
        )
        assert shuffled.tobytes() == batch[order].tobytes()


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
