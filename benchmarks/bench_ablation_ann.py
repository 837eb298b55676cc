"""Ablation: ANN search budget (k-d tree max_checks) vs recall and speed, and
the exact-search ceiling beside the tree as the database grows.

The IMM pipeline matches descriptors by *approximate* nearest neighbor.
This bench sweeps the best-bin-first budget: small budgets are fast but can
miss true neighbors; unlimited budgets are exact.  The design point used by
the library (64 checks) should retain high image-identification accuracy.

The ceiling is exact 2-NN by one ``(Q, 64) x (64, N)`` GEMM
(:func:`repro.imm.match_bruteforce`).  Its cost grows with the database's N
descriptors; the tree's, at a fixed budget, barely does — the crossover
report times both per query image as ``with_scenes(n)`` grows.
"""

import time

import numpy as np
import pytest

from repro.analysis import format_table
from repro.imm import ImageDatabase, KDTree, SceneGenerator, match_bruteforce

BUDGETS = (8, 32, 64, 256, None)
SCENE_COUNTS = (10, 40, 160)
LIBRARY_BUDGET = 64


@pytest.fixture(scope="module")
def descriptor_data():
    rng = np.random.default_rng(5)
    database = rng.normal(size=(800, 16))
    queries = rng.normal(size=(100, 16))
    truth = np.array([
        int(np.argmin(np.linalg.norm(database - q, axis=1))) for q in queries
    ])
    return database, queries, truth


def test_ablation_report(descriptor_data, save_report):
    database, queries, truth = descriptor_data
    tree = KDTree(database)
    rows = []
    for budget in BUDGETS:
        start = time.perf_counter()
        _, indices = tree.query_batch(queries, k=1, max_checks=budget)
        elapsed = time.perf_counter() - start
        rows.append(
            [str(budget), f"{np.mean(indices[:, 0] == truth):.2f}",
             f"{elapsed * 1000:.1f}"]
        )
    report = format_table(
        "ANN budget sweep: recall@1 and query time (100 queries in one batch, 800 points)",
        ["max_checks", "recall@1", "total ms"], rows,
    )
    save_report("ablation_ann_budget", report + "\n\n" + crossover_report())


def _best_ms(match, images, repeats=5):
    """Mean over query images of the best of ``repeats`` timings, in ms."""
    best = []
    for descriptors in images:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            match(descriptors)
            times.append(time.perf_counter() - start)
        best.append(min(times))
    return 1000 * float(np.mean(best))


def crossover_report():
    generator = SceneGenerator()
    rows = []
    crossover = None
    for n_scenes in SCENE_COUNTS:
        database = ImageDatabase.with_scenes(n_scenes, generator=generator)
        matcher = database._ensure_matcher()
        images = [
            database.surf.extract(generator.query_for(scene, seed=100 + scene)).descriptors
            for scene in range(10)
        ]
        tree_ms = _best_ms(matcher.match, images)
        gemm_ms = _best_ms(
            lambda q: match_bruteforce(q, matcher.database, matcher.ratio), images
        )
        if crossover is None and tree_ms < gemm_ms:
            crossover = n_scenes
        rows.append([
            str(n_scenes), str(len(matcher.database)), f"{tree_ms:.2f}", f"{gemm_ms:.2f}",
            "tree" if tree_ms < gemm_ms else "GEMM",
        ])
    verdict = (
        f"the tree overtakes the GEMM by n = {crossover} scenes"
        if crossover is not None
        else f"the GEMM is faster at every n up to {SCENE_COUNTS[-1]}"
    )
    return format_table(
        f"Exact GEMM vs k-d tree ({LIBRARY_BUDGET} checks), ms per query image "
        "(mean over 10 query views of the best of 5)",
        ["scenes", "db rows", "tree ms", "GEMM ms", "faster"], rows,
    ) + f"\nCrossover: {verdict}."


def test_recall_improves_with_budget(descriptor_data):
    database, queries, truth = descriptor_data
    tree = KDTree(database)

    def recall(budget):
        _, indices = tree.query_batch(queries, k=1, max_checks=budget)
        return float(np.mean(indices[:, 0] == truth))

    assert recall(8) <= recall(256) <= recall(None) == 1.0


def test_image_matching_accuracy_at_library_budget():
    generator = SceneGenerator(seed=44)
    database = ImageDatabase.with_scenes(6, generator=generator, max_checks=LIBRARY_BUDGET)
    correct = sum(
        database.match(generator.query_for(i)).image_name == f"scene-{i}"
        for i in range(6)
    )
    assert correct == 6


def test_bench_ann_query(benchmark, descriptor_data):
    database, queries, _ = descriptor_data
    tree = KDTree(database)
    _, indices = benchmark(tree.query_batch, queries, 2, LIBRARY_BUDGET)
    assert indices.shape == (len(queries), 2)


def test_bench_exact_query(benchmark, descriptor_data):
    database, queries, _ = descriptor_data
    tree = KDTree(database)
    _, indices = benchmark(tree.query_batch, queries, 2, None)
    assert (indices >= 0).all()
