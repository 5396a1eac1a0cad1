"""The stream keys of the harness against numpy's SeedSequence, the oracle
they reproduce from shared prefixes."""
import dataclasses
import random
import time

import pytest

from lmint import MeasurementPlan, MonteCarloConfig, NoiseParams, Scheme
from lmint.harness import _key_child, _key_root, _key_seeds, _plan_seed, estimate_once

from conftest import seed_sequence_child

_DRAWN = random.Random(17)
_ENTROPIES = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1] + [
    _DRAWN.getrandbits(64) for _ in range(20)]

_KEYS = [(0,), (1,), (2,), (2 ** 32 - 1,),                     # calibrate's (j,)
         (0, 1, 0), (3, 17, 2), (0, 0, 0), (2 ** 32 - 1,) * 3,  # a run's (p, k, j)
         (0, 2 ** 32 - 1, 1), (5, 2 ** 32, 1), (2 ** 40 + 3, 7, 2 ** 33)]


@pytest.mark.parametrize("entropy", _ENTROPIES)
def test_key_is_the_seed_sequence_child(entropy):
    # Bit for bit the seed of SeedSequence(entropy, spawn_key=key), words of
    # 0 and 2**32 - 1 and entries that SeedSequence splits into two words
    # included; if numpy ever changes the algorithm, this fails rather than
    # every stream moving silently.
    for key in _KEYS:
        assert _plan_seed(entropy, *key) == seed_sequence_child(entropy, key), key


@pytest.mark.parametrize("entropy", _ENTROPIES[::4])
def test_one_pass_seeds_are_the_seed_sequence_children(entropy):
    # A realization keys its data sets j = 0..3 (or 1..3 without the single
    # read-out) in one pass from the prefix (p, k): bit for bit the seeds of
    # SeedSequence(entropy, spawn_key=(p, k, j)), for prefix words of 0 and
    # 2**32 - 1, random ones and entries of two words, and for j = 2**32 - 1.
    prefixes = [(0, 0), (0, 1), (2 ** 32 - 1, 2 ** 32 - 1), (3, 2 ** 32 - 1), (2 ** 32 + 5, 9)]
    drawn = random.Random(entropy)
    prefixes += [(drawn.getrandbits(32), drawn.getrandbits(32)) for _ in range(4)]
    for p, k in prefixes:
        at_k = _key_child(_key_child(_key_root(entropy), p), k)
        for words in (range(0, 4), range(1, 4), (0, 2 ** 32 - 1)):
            want = [seed_sequence_child(entropy, (p, k, j)) for j in words]
            assert _key_seeds(at_k, words) == want, (p, k, words)


def test_estimate_once_draws_realization_one_only(bench_setup, bench_process):
    # Keys and draws are lazy and prefix-stable: realization 1 does not
    # depend on m_reps, and estimate_once at m_reps = 10**6 costs what it
    # costs at 2, far below the seconds an eager batch of 10**6 would take.
    cfg = MonteCarloConfig(setup=bench_setup, process=bench_process,
                           plan=MeasurementPlan(Scheme.JOINT, 3000, 0),
                           estimators=("displacement", "cov_method", "mean_method"),
                           noise=NoiseParams(t_c=0.9, v_c=1.2), calibration="auto",
                           m_reps=2, base_seed=16384)
    want = estimate_once(cfg)
    start = time.perf_counter()
    got = estimate_once(dataclasses.replace(cfg, m_reps=10 ** 6))
    assert time.perf_counter() - start < 0.2
    assert got == want
