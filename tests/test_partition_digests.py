"""Pinned partitions: the sha256 of gammas, deltas and complete flags.

The digests were recorded from the per-step scan that ``build_partition``
replaced, so a change to the scan must reproduce its partitions bit for
bit.  The cases are the ten configs of the benchmark workloads at their
benchmark horizons, the first heavy-ball config that reaches K_T
(quadratic, lambda = 0.9, gamma = 1.0 at 1.2e7 steps: 636,044 windows,
mostly multi-step) and the acceptance matrix's quadratic SGD gamma = 0.9
config at 1e7 steps (957 windows, the last ones near a million steps).
The configs are those of the acceptance matrix (suites.config_text).

The memory test builds both long partitions under tracemalloc: the scan
holds O(windows + chunk) memory, about 17 bytes per window, where a
full-horizon read of the schedule would take hundreds of megabytes.  The
SGD case has windows of up to a million steps, so it fails if a window
is read in one slice.
"""

import hashlib
import tracemalloc

import pytest

from sgdmlab import build_partition, parse_config
from suites import config_text

LONG_HB = (("quadratic", "shb", 1.0), 12_000_001)
LONG_SGD = (("quadratic", "sgd", 0.9), 10_000_001)

# ((problem, method, gamma), horizon) -> (n_windows, sha256)
DIGESTS = {
    (("quadratic", "sgd", 0.75), 100_001):
        (1641, "e090aeecfa3cfb0f9bd10d527ad95281047599318eae352e771086360711643f"),
    (("quadratic", "sgd", 0.9), 100_001):
        (494, "5ce662401f25cd48a982b5a68482fafd3c1454f56d5b498d0b664c785b885e4d"),
    (("quadratic", "sgd", 1.0), 100_001):
        (839, "ab4cb651b34db340b810b5f23febdb08102f79f69723d9272ad1365b18ff10d3"),
    (("even_power", "sgd", 0.75), 100_001):
        (8271, "3da786db185d2a1a6b8740958080f26d2de0ba2a228052061f0c6db5beb7aa55"),
    (("even_power", "sgd", 0.9), 100_001):
        (4371, "a3ffd4149c44fc2378974b447938c6e317ae1e3ac30ca96c17e810abacae041f"),
    (("even_power", "sgd", 1.0), 100_001):
        (13965, "c4cf16399536843379bf99138582c4b7fae81085eb9b1c417400b2551e60bfb6"),
    (("quadratic", "shb", 0.9), 500_001):
        (279668, "74d1552e47494441a66219758166aab75d5cbcab9b61a04e91291ccaf044fff9"),
    (("even_power", "shb", 0.75), 100_001):
        (100000, "87b86eacc13477bc89f444bef6efb522c6d2942df9d47ff0dc38c71153de3882"),
    (("even_power", "shb", 0.9), 100_001):
        (100000, "e91c9634537d89f02464e6e8078de2b6e33754c39cc83ca414800a55c285c87b"),
    (("even_power", "shb", 1.0), 100_001):
        (100000, "79d17607538cd85db259c751eaf6e229b788ee9fbed2dda87a57d71fa26fb54c"),
    LONG_HB:
        (636044, "234444141ef6724468668df0d0e4f2590cdfa0501e5c85c5d430c5150a7da237"),
    LONG_SGD:
        (957, "940454386df7d0017d7cebe64394f2686b48811b62f3c663c354207ee1522587"),
}


def _partition(key, horizon):
    cfg = parse_config(config_text(key, horizon))
    return build_partition(cfg.schedule, cfg.window_T, cfg.horizon)


def _facts(part):
    digest = hashlib.sha256(part.gammas.tobytes() + part.deltas.tobytes()
                            + part.complete.tobytes()).hexdigest()
    return part.n_windows, digest


def _id(case):
    return "-".join(map(str, case[0] + (case[1],)))


@pytest.mark.parametrize("case", sorted(set(DIGESTS) - {LONG_HB, LONG_SGD}), ids=_id)
def test_partition_digest(case):
    assert _facts(_partition(*case)) == DIGESTS[case]


@pytest.mark.parametrize("case", [LONG_HB, LONG_SGD], ids=_id)
def test_long_partition_memory_is_o_windows(case):
    tracemalloc.start()
    try:
        part = _partition(*case)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _facts(part) == DIGESTS[case]
    assert peak < 40e6, f"traced peak {peak / 1e6:.1f} MB"
