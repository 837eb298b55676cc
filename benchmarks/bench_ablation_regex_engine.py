"""Ablation: the lazy-DFA engine against the NFA set simulation it replaced.

``repro.regex.Pattern`` is the only matcher in the library; the reference is
``repro.regex.nfa.simulate`` — one state set per character, rebuilt at every
position, nothing cached — which is also the oracle the engine's tests use.
Both are exact; the DFA amortizes state-set construction across calls.  This
bench measures the gap on the QA filter workload (the Table 4 regex input
set).  Times are medians of five runs, never one sample.
"""

import statistics
import time

import pytest

from repro.analysis import format_table
from repro.regex import Pattern, build_pattern_strings, build_sentences
from repro.regex.nfa import compile_nfa, simulate
from repro.regex.parser import parse

RUNS = 5


@pytest.fixture(scope="module")
def workload():
    return build_pattern_strings(50), build_sentences(100)


def nfa_test(nfa, text):
    """``Pattern.test`` over the reference simulation."""
    return any(simulate(nfa, text, start) is not None for start in range(len(text) + 1))


def timed(run):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = run()
    return result, time.perf_counter() - start


def median_time(run):
    """The result and the median seconds of ``RUNS`` calls."""
    results, seconds = zip(*(timed(run) for _ in range(RUNS)))
    assert len(set(results)) == 1
    return results[0], statistics.median(seconds)


def test_engine_comparison_report(workload, save_report):
    pattern_strings, sentences = workload
    nfas = [compile_nfa(parse(p)) for p in pattern_strings]

    def dfa_hits(patterns):
        return sum(p.test(s) for p in patterns for s in sentences)

    nfa_hits, nfa_time = median_time(
        lambda: sum(nfa_test(nfa, s) for nfa in nfas for s in sentences)
    )
    # Cold: every run compiles its patterns (~3 ms of the total), so every
    # transition is a miss once.
    dfa_cold, dfa_cold_time = median_time(lambda: dfa_hits(map(Pattern, pattern_strings)))
    patterns = [Pattern(p) for p in pattern_strings]
    dfa_hits(patterns)
    dfa_warm, dfa_warm_time = median_time(lambda: dfa_hits(patterns))

    assert nfa_hits == dfa_cold == dfa_warm
    rows = [
        ["NFA simulation (reference)", f"{nfa_time * 1000:.0f}", "1.0x"],
        ["lazy DFA (cold)", f"{dfa_cold_time * 1000:.0f}", f"{nfa_time / dfa_cold_time:.1f}x"],
        ["lazy DFA (warm)", f"{dfa_warm_time * 1000:.0f}", f"{nfa_time / dfa_warm_time:.1f}x"],
    ]
    report = format_table(
        f"Regex engine ablation (50 patterns x 100 sentences, median of {RUNS} runs)",
        ["Engine", "total ms", "speedup"], rows,
    )
    save_report("ablation_regex_engine", report)


def test_dfa_faster_warm(workload):
    pattern_strings, sentences = workload
    nfas = [compile_nfa(parse(p)) for p in pattern_strings[:20]]
    patterns = [Pattern(p) for p in pattern_strings[:20]]
    for pattern in patterns:  # warm the transition caches
        for sentence in sentences[:30]:
            pattern.test(sentence)
    _, nfa_time = median_time(
        lambda: sum(nfa_test(nfa, s) for nfa in nfas for s in sentences[:30])
    )
    _, dfa_time = median_time(
        lambda: sum(p.test(s) for p in patterns for s in sentences[:30])
    )
    assert dfa_time < nfa_time


def test_bench_nfa(benchmark, workload):
    pattern_strings, sentences = workload
    nfa = compile_nfa(parse(pattern_strings[2]))
    count = benchmark(lambda: sum(nfa_test(nfa, s) for s in sentences))
    assert count >= 0


def test_bench_dfa(benchmark, workload):
    pattern_strings, sentences = workload
    pattern = Pattern(pattern_strings[2])
    count = benchmark(lambda: sum(pattern.test(s) for s in sentences))
    assert count >= 0
