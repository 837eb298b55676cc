"""Ablation: k-d tree vs LSH for the IMM ANN stage.

Both are approximate nearest-neighbor structures; the k-d tree's best-bin-
first search adapts its probes, while LSH pays a constant bucket-scan cost.
This bench compares recall and query time on SURF-like descriptors.  The
tree answers all queries in one batched call (as the IMM matcher does); LSH
has no batched form and is called once per query.
"""

import time

import numpy as np
import pytest

from repro.analysis import format_table
from repro.imm import KDTree
from repro.imm.lsh import LSHIndex


@pytest.fixture(scope="module")
def descriptors():
    rng = np.random.default_rng(21)
    database = rng.normal(size=(600, 64))
    database /= np.linalg.norm(database, axis=1, keepdims=True)
    queries = database[:150] + rng.normal(0, 0.05, (150, 64))
    truth = np.array([
        int(np.argmin(np.linalg.norm(database - q, axis=1))) for q in queries
    ])
    return database, queries, truth


def _tree_recall_and_time(tree, queries, truth, max_checks):
    start = time.perf_counter()
    _, indices = tree.query_batch(queries, k=1, max_checks=max_checks)
    elapsed = time.perf_counter() - start
    return float(np.mean(indices[:, 0] == truth)), elapsed


def _lsh_recall_and_time(lsh, queries, truth):
    start = time.perf_counter()
    hits = 0
    for query, expected in zip(queries, truth):
        ids = lsh.query(query, k=1)[1]
        hits += int(len(ids) > 0 and ids[0] == expected)
    elapsed = time.perf_counter() - start
    return hits / len(queries), elapsed


def test_ablation_report(descriptors, save_report):
    database, queries, truth = descriptors
    tree = KDTree(database)
    lsh = LSHIndex(database, n_tables=8, n_bits=10, seed=4)

    rows = []
    kd_recall, kd_time = _tree_recall_and_time(tree, queries, truth, 64)
    rows.append(["k-d tree (64 checks)", f"{kd_recall:.2f}", f"{kd_time * 1000:.0f}"])
    exact_recall, exact_time = _tree_recall_and_time(tree, queries, truth, None)
    rows.append(["k-d tree (exact)", f"{exact_recall:.2f}", f"{exact_time * 1000:.0f}"])
    lsh_recall, lsh_time = _lsh_recall_and_time(lsh, queries, truth)
    rows.append(["LSH (8 tables x 10 bits)", f"{lsh_recall:.2f}", f"{lsh_time * 1000:.0f}"])

    report = format_table(
        "ANN structure ablation (150 queries over 600 SURF-like descriptors; "
        "tree batched, LSH per query)",
        ["Structure", "recall@1", "total ms"], rows,
    )
    save_report("ablation_lsh_vs_kdtree", report)
    assert exact_recall == 1.0


def test_lsh_recall_reasonable(descriptors):
    database, queries, truth = descriptors
    lsh = LSHIndex(database, n_tables=8, n_bits=10, seed=4)
    recall, _ = _lsh_recall_and_time(lsh, queries, truth)
    assert recall > 0.7


def test_bench_kdtree_query(benchmark, descriptors):
    database, queries, _ = descriptors
    tree = KDTree(database)
    _, indices = benchmark(tree.query_batch, queries, 1, 64)
    assert indices.shape == (len(queries), 1)


def test_bench_lsh_query(benchmark, descriptors):
    database, queries, _ = descriptors
    lsh = LSHIndex(database, seed=4)
    result = benchmark(lsh.query, queries[0], 1)
    assert len(result) == 2
