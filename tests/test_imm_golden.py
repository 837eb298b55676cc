"""Bit-identity of the whole-array IMM path against the scalar loops it replaced.

``tests/fixtures/imm_golden.json`` was written by ``compute_golden()`` running
on the per-sample scalar implementation (the commit before the whole-array
rewrite) and is never regenerated from the code under test: every digest is
a sha256 over raw float64 bytes, so a one-ulp drift anywhere in FE, FD or
ANN fails here.  The scalar descriptor loop itself is kept below
as ``scalar_descriptor`` — the reference the property tests compare against
at keypoints the golden does not cover, called at orientation 0 (the
descriptor is upright only) — and so are the per-descriptor heap
walk the batched k-d tree search replaced, as ``heap_walk_query``, and the
2-D-slice fast-Hessian the flat-run detector replaced, as ``oracle_detect``.

Regenerate (only from a commit whose output is the intended reference):
``PYTHONPATH=src python tests/test_imm_golden.py``.
"""

import hashlib
import heapq
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.imm import (
    AnnMatcher,
    FastHessianDetector,
    Image,
    ImageDatabase,
    KDTree,
    SceneGenerator,
    Surf,
    describe_keypoints,
    integral_image,
)
from repro.imm.hessian import (
    DEFAULT_FILTER_SIZES,
    Keypoint,
    _centre_rows,
    _filter_reach,
    _hessian_maps,
    _response_at,
)
from repro.imm.integral import PaddedIntegral
from repro.imm.kdtree import LEAF_SIZE
from tests.test_imm_lowlevel import box_sum, image_view

GOLDEN = Path(__file__).parent / "fixtures" / "imm_golden.json"
N_SCENES = 10


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
        upright_of[image.name] = describe_keypoints(image, keypoints, ii=ii)
        golden["images"][image.name] = {
            "n_keypoints": len(keypoints),
            "keypoints": digest(keypoint_rows(keypoints)),
            "upright": digest(upright_of[image.name]),
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
        result = database.match(query)
        golden["verified"][query.name] = [
            result.image_name, result.votes, result.total_matches,
            result.n_query_keypoints,
        ]

    # The scalar loop wrote this entry through its rotation at angle 0; the
    # upright batch, which has no rotation, must give the same bytes.
    ii = integral_image(scenes[0].pixels)
    golden["edge_cases"] = {
        "orientation=0.0": digest(describe_keypoints(scenes[0], edge_keypoints(), ii=ii)),
    }

    data, kd_queries = kdtree_cases()
    tree = KDTree(data)
    golden["kdtree"] = {}
    for max_checks in (None, 8, 64):
        found = [query_one(tree, q, k=2, max_checks=max_checks) for q in kd_queries]
        golden["kdtree"][str(max_checks)] = {
            "distances": digest(np.concatenate([d for d, _ in found])),
            "indices": digest(np.concatenate([i for _, i in found])),
        }
    return golden


def test_matches_scalar_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = compute_golden()
    # The fixture's "verified" rows were written by RANSAC-verified matching
    # and carry a fifth field, the inlier count, which nothing computes any
    # more. Verification never changed the winner on these queries, so the
    # first four fields are what plain ``match`` returns, and only they are
    # compared.
    expected["verified"] = {
        name: row[:4] for name, row in expected["verified"].items()
    }
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
    @given(st.floats(-12, 140), st.floats(-12, 140), st.floats(0.4, 7.5))
    @settings(deadline=None, max_examples=40)
    def test_one_row_equals_scalar_loop(self, scene, y, x, scale):
        _, ii = scene
        keypoint = Keypoint(y, x, scale, 1.0, 1)
        expected = scalar_descriptor(ii, keypoint, 0.0)
        assert describe_keypoints(None, [keypoint], ii=ii)[0].tobytes() == expected.tobytes()

    def test_row_i_is_describe_keypoint_i(self, scene):
        image, ii = scene
        keypoints = Surf().extract_keypoints(image, ii) + edge_keypoints()[::5]
        batch = describe_keypoints(image, keypoints, ii=ii)
        assert batch.shape == (len(keypoints), 64)
        for row, keypoint in zip(batch, keypoints):
            assert row.tobytes() == describe_keypoints(None, [keypoint], ii=ii)[0].tobytes()

    def test_upright_on_a_constant_region_is_the_rotation_path(self):
        # Haar responses over a constant region are exactly zero, where the
        # scalar loop's rotation at orientation 0 multiplies them by
        # -sin = -0.0 and adds signed zeros; the upright path has no
        # rotation, and the 25-sample sums, starting from +0.0, must absorb
        # the difference.
        rng = np.random.default_rng(7)
        pixels = np.full((64, 64), 0.5)
        pixels[:, 40:] = rng.uniform(size=(64, 24))
        ii = integral_image(pixels)
        keypoints = [
            Keypoint(float(y), float(x), scale, 1.0, 1)
            for y in (10.0, 31.5, 50.0)
            for x in (8.0, 20.0, 35.0, 52.5)
            for scale in (1.2, 2.0, 3.6)
        ]
        batch = describe_keypoints(Image(pixels), keypoints, ii=ii)
        assert (batch == 0).all(axis=1).any()  # windows wholly inside the region
        for row, keypoint in zip(batch, keypoints):
            assert row.tobytes() == scalar_descriptor(ii, keypoint, 0.0).tobytes()

    def test_permuting_keypoints_permutes_rows(self, scene):
        image, ii = scene
        keypoints = Surf().extract_keypoints(image, ii)
        order = np.random.default_rng(5).permutation(len(keypoints))
        batch = describe_keypoints(image, keypoints, ii=ii)
        shuffled = describe_keypoints(image, [keypoints[i] for i in order], ii=ii)
        assert shuffled.tobytes() == batch[order].tobytes()


# -- the 2-D-slice fast-Hessian, kept as the reference -------------------------------


def oracle_box_sum_map(table, pad, dy, dx, height, width):
    """Box sums for every pixel as four 2-D slices of the edge-padded table."""
    rows, cols = table.shape[0] - 1 - 2 * pad, table.shape[1] - 1 - 2 * pad
    y0, x0 = pad + dy, pad + dx
    y1, x1 = y0 + height, x0 + width
    return (
        table[y1 : y1 + rows, x1 : x1 + cols]
        - table[y0 : y0 + rows, x1 : x1 + cols]
        - table[y1 : y1 + rows, x0 : x0 + cols]
        + table[y0 : y0 + rows, x0 : x0 + cols]
    )


def oracle_maps(table, pad, filter_size):
    """The (H, W) response map, and the unscaled trace Dxx + Dyy whose sign
    ``oracle_laplacian_sign`` computes pixel by pixel."""

    def box(dy, dx, height, width):
        return oracle_box_sum_map(table, pad, dy, dx, height, width)

    lobe = filter_size // 3
    border = filter_size // 2
    inverse_area = 1.0 / (filter_size * filter_size)
    width = 2 * lobe - 1
    x_off = -(width // 2)
    dyy = box(-border, x_off, filter_size, width) - 3.0 * box(-(lobe // 2), x_off, lobe, width)
    dxx = box(x_off, -border, width, filter_size) - 3.0 * box(x_off, -(lobe // 2), width, lobe)
    dxy = (
        box(-lobe, 1, lobe, lobe)
        + box(1, -lobe, lobe, lobe)
        - box(-lobe, -lobe, lobe, lobe)
        - box(1, 1, lobe, lobe)
    )
    trace = dxx + dyy
    dxx *= inverse_area
    dyy *= inverse_area
    dxy *= inverse_area
    return dxx * dyy - (0.9 * dxy) ** 2, trace


def oracle_laplacian_sign(ii, y, x, filter_size):
    """Sign of Dxx + Dyy at one point, from four scalar box sums."""
    lobe = filter_size // 3
    border = filter_size // 2
    width = 2 * lobe - 1
    x_off = -(width // 2)
    dyy = box_sum(ii, y - border, x + x_off, filter_size, width) - 3.0 * box_sum(
        ii, y - (lobe // 2), x + x_off, lobe, width
    )
    dxx = box_sum(ii, y + x_off, x - border, width, filter_size) - 3.0 * box_sum(
        ii, y + x_off, x - (lobe // 2), width, lobe
    )
    return 1 if dxx + dyy >= 0 else -1


def oracle_detect(detector, image):
    """The detect the flat-run one replaced: one (H, W) response map per
    scale, a 26-compare full-plane NMS, and a scalar Laplacian sign."""
    ii = integral_image(image.pixels)
    pad = max(detector.filter_sizes) // 2 + 1
    table = np.pad(ii, pad, mode="edge")
    responses = np.stack([oracle_maps(table, pad, size)[0] for size in detector.filter_sizes])
    keypoints = []
    n_scales, height, width = responses.shape
    for scale_index in range(1, n_scales - 1):
        size = detector.filter_sizes[scale_index]
        border = size // 2 + 1
        if height <= 2 * border or width <= 2 * border:
            continue
        center = responses[scale_index, border : height - border, border : width - border]
        candidate = center >= detector.threshold
        for ds in (-1, 0, 1):
            plane = responses[scale_index + ds]
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if ds == 0 and dy == 0 and dx == 0:
                        continue
                    candidate &= center > plane[
                        border + dy : height - border + dy,
                        border + dx : width - border + dx,
                    ]
        ys, xs = np.nonzero(candidate)
        for y, x in zip(ys + border, xs + border):
            keypoints.append(
                Keypoint(
                    y=float(y),
                    x=float(x),
                    scale=1.2 * size / 9.0,
                    response=float(responses[scale_index, y, x]),
                    sign=oracle_laplacian_sign(ii, int(y), int(x), size),
                )
            )
    keypoints.sort(key=lambda kp: -kp.response)
    if detector.max_keypoints is not None:
        keypoints = keypoints[: detector.max_keypoints]
    return keypoints


def exact_rows(keypoints):
    return [(kp.y, kp.x, kp.scale, kp.response.hex(), kp.sign) for kp in keypoints]


@st.composite
def detector_images(draw):
    """Images 8-96 px, some smaller than filter 51's reach, with plateaus
    (constant and 0/1-clipped regions) so that exact response ties reach
    the NMS's strict ``>``."""
    rows, cols = draw(st.integers(8, 96)), draw(st.integers(8, 96))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "constant", "binary", "blocks", "patched"]))
    if kind == "noise":
        pixels = rng.uniform(size=(rows, cols))
    elif kind == "constant":
        pixels = np.full((rows, cols), draw(st.sampled_from([0.0, 0.3, 1.0])))
    elif kind == "binary":
        pixels = np.clip(np.round(rng.normal(0.5, 0.6, size=(rows, cols))), 0.0, 1.0)
    elif kind == "blocks":
        block = draw(st.integers(2, 12))
        coarse = rng.uniform(size=(rows // block + 1, cols // block + 1))
        pixels = np.kron(coarse, np.ones((block, block)))[:rows, :cols]
    else:
        pixels = rng.uniform(size=(rows, cols))
        y, x = rng.integers(0, rows), rng.integers(0, cols)
        pixels[y : y + rows // 2, x : x + cols // 2] = rng.uniform()
    return Image(np.ascontiguousarray(pixels))


class TestDetectOracle:
    @given(
        detector_images(),
        st.sampled_from([0.0, 5e-6, 1e-4]),
        st.sampled_from([None, 1, 200]),
    )
    @settings(deadline=None, max_examples=150)
    def test_detect_is_the_slice_detector(self, image, threshold, max_keypoints):
        sizes = DEFAULT_FILTER_SIZES
        detector = FastHessianDetector(threshold, max_keypoints)
        expected = exact_rows(oracle_detect(detector, image))
        assert exact_rows(detector.detect(image)) == expected
        # A keypoint's response >= threshold >= 0 puts Dxx and Dyy on one
        # sign, which scaling cannot flip: only the maps show a trace taken
        # after the area normalization.
        ii = integral_image(image.pixels)
        pad = _filter_reach(sizes[-1])
        padded = PaddedIntegral(ii, pad)
        table = np.pad(ii, pad, mode="edge")
        for size in sizes:
            runs = _hessian_maps(padded, size, np.empty((2, padded.cells)))
            for run, oracle in zip(runs, oracle_maps(table, pad, size)):
                assert image_view(padded, run).tobytes() == oracle.tobytes()

    @given(
        detector_images(),
        st.sampled_from([DEFAULT_FILTER_SIZES, (9, 15, 21), (9, 21, 33, 45)]),
    )
    @settings(deadline=None, max_examples=100)
    def test_every_computed_cell_is_the_oracle(self, image, sizes):
        # detect fills each centre scale's maps on a row range only, and
        # evaluates the two outer scales at single cells: each must hold the
        # oracle's floats, and each row range must cover every row that the
        # NMS of that scale and of its centre neighbours reads.
        ii = integral_image(image.pixels)
        pad = _filter_reach(sizes[-1])
        padded = PaddedIntegral(ii, pad)
        table = np.pad(ii, pad, mode="edge")
        height, width, stride = padded.height, padded.width, padded.stride
        rows = _centre_rows(sizes, height, width)
        borders = [size // 2 + 1 for size in sizes]
        for scale_index, (first, last) in enumerate(rows, 1):
            for centre in range(max(scale_index - 1, 1), min(scale_index + 1, len(rows)) + 1):
                assert first <= borders[centre] - 1 and height - borders[centre] + 1 <= last
            runs = _hessian_maps(
                padded, sizes[scale_index], np.empty((2, (last - first) * stride)), first * stride
            )
            for run, oracle in zip(runs, oracle_maps(table, pad, sizes[scale_index])):
                assert run.reshape(-1, stride)[:, :width].tobytes() == oracle[first:last].tobytes()
        if not rows:
            return
        for outer, beside in ((0, 1), (len(rows) + 1, len(rows))):
            border = borders[beside]
            ys, xs = np.mgrid[border - 1 : height - border + 1, border - 1 : width - border + 1]
            response = _response_at(padded, sizes[outer], (ys * stride + xs).ravel())
            oracle = oracle_maps(table, pad, sizes[outer])[0]
            assert response.tobytes() == oracle[ys, xs].ravel().tobytes()

    @pytest.mark.parametrize(
        "rows, cols", [(16, 80), (17, 60), (22, 96), (28, 40), (40, 41), (60, 25), (96, 30)]
    )
    @pytest.mark.parametrize("threshold", [0.0, 5e-6])
    def test_skipped_interior_scales(self, rows, cols, threshold):
        # height or width <= 2 * border leaves a scale no NMS window; the
        # last centre's neighbour is then an interior scale, evaluated at
        # points like the ladder's last, and the scales past it not at all.
        detector = FastHessianDetector(threshold, None)
        centres = len(_centre_rows(DEFAULT_FILTER_SIZES, rows, cols))
        assert centres < len(DEFAULT_FILTER_SIZES) - 2
        rng = np.random.default_rng(rows * cols)
        coarse = rng.uniform(size=(rows // 3 + 1, cols // 3 + 1))
        blocks = np.kron(coarse, np.ones((3, 3)))[:rows, :cols]
        for pixels in (rng.uniform(size=(rows, cols)), blocks):
            image = Image(np.ascontiguousarray(pixels))
            expected = exact_rows(oracle_detect(detector, image))
            assert exact_rows(detector.detect(image)) == expected
            assert bool(expected) <= bool(centres)

    def test_golden_images_are_the_slice_detector(self):
        scenes, queries = images()
        detector = FastHessianDetector()
        for image in scenes[:2] + queries[:2] + [t for _, _, t in scenes[0].tiles(64)]:
            assert exact_rows(detector.detect(image)) == exact_rows(oracle_detect(detector, image))


# -- the heap walk, kept as the reference --------------------------------------------


@dataclass
class HeapNode:
    axis: int = -1
    split: float = 0.0
    left: Optional["HeapNode"] = None
    right: Optional["HeapNode"] = None
    indices: Optional[np.ndarray] = None  # leaf payload


def heap_tree(data, leaf_size):
    """The linked node tree, split by the same rule as ``KDTree``."""

    def build(indices):
        if len(indices) <= leaf_size:
            return HeapNode(indices=indices)
        subset = data[indices]
        axis = int(np.argmax(subset.var(axis=0)))
        order = np.argsort(subset[:, axis], kind="stable")
        split_value = float(subset[order[len(indices) // 2], axis])
        left_mask = subset[:, axis] < split_value
        if not left_mask.any() or left_mask.all():
            return HeapNode(indices=indices)
        return HeapNode(
            axis=axis,
            split=split_value,
            left=build(indices[left_mask]),
            right=build(indices[~left_mask]),
        )

    return build(np.arange(len(data)))


def heap_walk_query(data, root, vector, k, max_checks):
    """The per-descriptor ``heapq`` best-bin-first walk the batched search replaced.

    Returns (distances, indices, examined), ``examined`` being the
    (squared distance, row) of every row the walk checked.
    """
    best = []  # max-heap via negated distance
    examined = []
    checks = 0
    counter = 0
    frontier = [(0.0, counter, root)]
    while frontier:
        bound, _, node = heapq.heappop(frontier)
        if len(best) == k and bound > -best[0][0]:
            break
        if max_checks is not None and checks >= max_checks and len(best) >= min(k, checks):
            break
        if node.indices is not None:
            squared = ((data[node.indices] - vector) ** 2).sum(axis=1)
            for index, distance in zip(node.indices.tolist(), squared.tolist()):
                checks += 1
                examined.append((distance, index))
                if len(best) < k:
                    heapq.heappush(best, (-distance, index))
                elif distance < -best[0][0]:
                    heapq.heapreplace(best, (-distance, index))
            continue
        diff = vector[node.axis] - node.split
        near, far = (node.left, node.right) if diff < 0 else (node.right, node.left)
        counter += 1
        heapq.heappush(frontier, (bound, counter, near))
        counter += 1
        heapq.heappush(frontier, (max(bound, diff * diff), counter, far))

    ordered = sorted((-negative, index) for negative, index in best)
    distances = np.sqrt(np.array([item[0] for item in ordered]))
    indices = np.array([item[1] for item in ordered], dtype=int)
    return distances, indices, examined


def query_one(tree, vector, k=1, max_checks=None):
    """One vector's nearest rows: a one-row ``query_batch`` without the
    padding of unexamined slots."""
    vector = np.asarray(vector, dtype=float).ravel()
    distances, indices = tree.query_batch(vector[None, :], k, max_checks)
    found = indices[0] >= 0
    return distances[0, found], indices[0, found]


def assert_search_is_heap_walk(data, queries, k, max_checks):
    """Distances byte-equal to the heap walk's; indices too, unless more than
    ``k`` examined rows tie at the k-th distance — then the lowest rows win."""
    tree = KDTree(data)
    root = heap_tree(data, LEAF_SIZE)
    batch_distances, batch_indices = tree.query_batch(queries, k, max_checks)
    for row, vector in enumerate(queries):
        distances, indices = query_one(tree, vector, k, max_checks)
        found = batch_indices[row] >= 0
        assert distances.tobytes() == batch_distances[row, found].tobytes()
        assert indices.tolist() == batch_indices[row, found].tolist()

        expected, heap_indices, examined = heap_walk_query(data, root, vector, k, max_checks)
        assert distances.tobytes() == expected.tobytes()
        lowest = sorted(examined)[:k]
        assert indices.tolist() == [index for _, index in lowest]
        tied = lowest and sum(d <= lowest[-1][0] for d, _ in examined) > k
        if not tied:
            assert indices.tolist() == heap_indices.tolist()


class TestHeapWalkOracle:
    # Up to 320 rows: leaves of LEAF_SIZE = 8 rows, so trees reach depth 6.
    @given(
        st.integers(1, 320), st.integers(1, 4), st.integers(1, 3),
        st.sampled_from([None, 1, 4, 16, 64]), st.booleans(), st.integers(0, 2**32 - 1),
    )
    @settings(deadline=None, max_examples=150)
    @example(6, 3, 2, None, False, 0)  # the root is a leaf
    @example(3, 3, 3, 1, False, 0)  # k > N
    @example(30, 3, 3, 4, True, 0)  # all rows equal
    def test_batched_search_is_the_heap_walk(
        self, n_rows, dims, k, max_checks, equal_rows, seed
    ):
        # Data on a 0.1 grid, so coordinate, bound and distance ties are dense.
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(n_rows, dims)).round(1)
        if equal_rows:
            data[:] = data[0]
        queries = np.vstack([rng.normal(size=(5, dims)).round(1), data[:2]])
        assert_search_is_heap_walk(data, queries, k, max_checks)

    @given(
        st.integers(2, 480), st.integers(1, 3),
        st.sampled_from([1, 2, 4, 9, 16, 64]), st.integers(0, 2**32 - 1),
    )
    @settings(deadline=None, max_examples=150)
    def test_examined_rows_are_the_heap_walks(self, n_rows, dims, max_checks, seed):
        # With k = N every examined row is returned, so the budget's cut of
        # the visit order shows: integer data puts split differences at
        # exactly 0, where a far child's bound ties its parent's and only
        # the ancestor bounds and the near-first rank order the leaves.
        rng = np.random.default_rng(seed)
        data = rng.integers(-2, 3, size=(n_rows, dims)).astype(float)
        tree = KDTree(data)
        root = heap_tree(data, LEAF_SIZE)
        queries = np.vstack([rng.integers(-2, 3, size=(4, dims)), data[:2]]).astype(float)
        _, indices = tree.query_batch(queries, n_rows, max_checks)
        for row, vector in enumerate(queries):
            _, _, examined = heap_walk_query(data, root, vector, n_rows, max_checks)
            found = indices[row][indices[row] >= 0]
            assert sorted(found.tolist()) == sorted(index for _, index in examined)



if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
