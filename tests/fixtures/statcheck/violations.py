"""Deliberate statcheck violations, exactly one per rule code.

This module is never imported or executed; the statcheck CLI integration
test lints it and asserts exit code 1 with every rule code present.  Keep
one violation per rule so tests can assert the catalogue precisely.
"""

import numpy as np


def sc101_unguarded_prob_log(probabilities):
    return np.log(probabilities)


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


def sc901_dynamic_telemetry_name(store, replica):
    store.inc(f"serve.router.replica.{replica}", 0.0)


def sc1002_inline_pricing_constant():
    gpu_tdp_watts = 230.0
    return gpu_tdp_watts
