"""Deliberate statcheck violations, exactly one per rule code.

This module is never imported or executed; the statcheck CLI integration
test lints it and asserts exit code 1 with every rule code present.  Keep
one violation per rule so tests can assert the catalogue precisely.
"""

import time

import numpy as np

from repro.suite.parallel import map_chunks, run_chunks_in_processes


class Kernel:  # stand-in so the SC203 fixture has a Kernel base class
    pass


def sc101_unguarded_prob_log(probabilities):
    return np.log(probabilities)


def sc102_naive_logsumexp(scores):
    return np.log(np.exp(scores).sum())


def sc103_default_dtype_accumulator(frames):
    totals = np.zeros(10)
    for frame in frames:
        totals += frame
    return totals


def sc201_array_grow_in_loop(chunks):
    out = np.zeros(0, dtype=np.float64)
    for chunk in chunks:
        out = np.concatenate([out, chunk])
    return out


def sc202_list_to_array_in_loop(rows):
    collected = []
    for row in rows:
        collected.append(row)
        snapshot = np.array(collected)
    return snapshot


class FixtureKernel(Kernel):
    def run(self, inputs):
        total = 0.0
        for i in range(len(inputs)):
            total += inputs[i] * 2.0
        return total


def sc204_wall_clock_duration(action):
    start = time.time()
    action()
    return start


def sc301_shared_state_mutation(items):
    totals = []

    def work(chunk):
        totals.append(sum(chunk))

    map_chunks(work, items, workers=4)
    return totals


def sc302_lambda_to_process_pool(kernel, chunks):
    return run_chunks_in_processes(lambda chunk: kernel.run(chunk), chunks)


def sc303_unseeded_global_random():
    return np.random.normal(0.0, 1.0, size=8)


def sc401_mutable_default(values=[]):
    values.append(1)
    return values


def sc402_bare_except(action):
    try:
        return action()
    except:
        return None


def sc403_generic_raise(flag):
    if not flag:
        raise RuntimeError("flag must be set")


def sc901_dynamic_telemetry_name(store, replica):
    store.inc(f"serve.router.replica.{replica}", 0.0)


def sc1002_inline_pricing_constant():
    gpu_tdp_watts = 230.0
    return gpu_tdp_watts
