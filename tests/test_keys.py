"""The stream keys of a run against fresh Philox generators keyed by the
documented packing: variate kind v of data set j at sweep point p comes from
Generator(Philox(key=[base_seed, p 2^32 + j 2^8 + v])).  The first two tests
keep the names they had when each stream was a SeedSequence child; they now
pin the Philox keys that replaced those children, over base seeds of 0,
2**32 - 1, 2**64 - 1 and random 64-bit words."""
import dataclasses
import random
import time

import pytest

from lmint import MeasurementPlan, MonteCarloConfig, NoiseParams, Scheme
from lmint.estimators import PROBE_PHASES
from lmint.harness import _simulate_realizations, _stream_word, estimate_once
from lmint.interferometer import measured_moments
from lmint.measurement import draw_variates, form_moments, record_laws

from conftest import reference_draw

_DRAWN = random.Random(17)
_ENTROPIES = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1] + [
    _DRAWN.getrandbits(64) for _ in range(20)]

_KEYS = [(0, 0), (0, 1), (0, 6), (1, 0), (1, 3), (3, 2),        # a sweep's (p, j)
         (17, 4), (17, 5), (2 ** 32 - 1, 0), (2 ** 32 - 1, 6), (2 ** 31 + 5, 3)]

# (z, cov, scheme, n): a paired law (two gamma columns) and a homodyne3 law
# with unequal groups (three gamma columns), so v runs over 0 to 3.
_LAWS = [(0.5 - 2.0j, (3.0, 0.4, 2.5), Scheme.JOINT, 3000),
         (1.5 + 0.25j, (1.2, -0.1, 4.0), Scheme.HOMODYNE_SPLIT3, 3001)]


def _bits(z, c0, c1, mean_diag, n_effective, scheme) -> tuple:
    """A draw's statistics as float.hex strings, its shot counts and scheme."""
    floats = (z.real, z.imag, c0, c1.real, c1.imag)
    floats += (mean_diag,) if mean_diag is not None else ()
    return tuple(x.hex() for x in floats), dict(n_effective), scheme


def _mean_bits(z, c0, c1, mean_diag, n_effective, scheme) -> tuple:
    """_bits of a draw's means alone, its scatter left out."""
    return _bits(z, 0.0, 0j, mean_diag, n_effective, scheme)


def _row_bits(block, k, full: bool) -> tuple:
    """Row k of a block's columns: _bits with its conditioned scatter, or
    _mean_bits of a mean-only block."""
    c0, c1 = block.conditioned[k] if full else (None, None)
    return (_bits if full else _mean_bits)(block.z[k], c0, c1,
                                           block.mean_diag and block.mean_diag[k],
                                           block.n_effective, block.scheme)


@pytest.mark.parametrize("entropy", _ENTROPIES)
def test_key_is_the_seed_sequence_child(entropy):
    # The word of data set j at point p is p 2^32 + j 2^8, written here as
    # arithmetic rather than the harness's shifts; the variates drawn under
    # it are bit for bit those of a fresh Philox per kind v keyed (entropy,
    # word + v), for points up to 2**32 - 1 and every data set, and no two
    # (p, j, v) of the keys share a stream.
    words = set()
    for p, j in _KEYS:
        word = p * 2 ** 32 + j * 2 ** 8
        assert _stream_word(p, j) == word, (p, j)
        words.update(word + v for v in range(4))
        for law_args in _LAWS:
            law = record_laws(*law_args)
            block = form_moments(law, draw_variates(law, entropy, word, 2))
            got = [_row_bits(block, k, True) for k in range(len(block.z))]
            assert got == [_bits(*want) for want in reference_draw(law_args, entropy, word, 2)], \
                (p, j, law_args[2])
    assert len(words) == 4 * len(_KEYS)


@pytest.mark.parametrize("entropy", _ENTROPIES[::4])
def test_one_pass_seeds_are_the_seed_sequence_children(entropy, bench_setup, bench_process):
    # A run at point p draws its data sets j = 0..3 (or 1..3 without the
    # single read-out, or 0 alone without the probes) from the streams of
    # (entropy, p 2^32 + j 2^8 + v): realization k of each is row k - 1 of
    # reference_draw of that data set's law, for points of 0, 2**32 - 1 and
    # random ones, on a paired and a homodyne scheme.  displacement and
    # mean_method read no scatter, so their data sets hold the means alone.
    drawn = random.Random(entropy)
    points = [0, 1, 2 ** 32 - 1] + [drawn.getrandbits(32) for _ in range(2)]
    noise = NoiseParams(t_c=0.9, v_c=1.2)
    for scheme, n in ((Scheme.JOINT, 3000), (Scheme.HOMODYNE_SPLIT3, 3003)):
        cfg = MonteCarloConfig(setup=bench_setup, process=bench_process,
                               plan=MeasurementPlan(scheme, n, 0), estimators=("displacement",),
                               noise=noise, m_reps=3, base_seed=entropy)
        phases = [bench_setup.probe_phase, *PROBE_PHASES]
        means, cov = measured_moments(bench_setup, bench_process, noise, phases)
        law_args = [(means[0], cov, scheme, n)] + [(z, cov, scheme, n // 3) for z in means[1:]]
        for bases, data_sets in (({"displacement"}, (0,)), ({"mean_method"}, (1, 2, 3)),
                                 ({"cov_method", "combined"}, (0, 1, 2, 3))):
            full = "combined" in bases
            for p in points:
                want = {j: [(_bits if full else _mean_bits)(*d) for d in reference_draw(
                    law_args[j], entropy, p * 2 ** 32 + j * 2 ** 8, 3)] for j in data_sets}
                ((single_block, probe_blocks),) = _simulate_realizations(cfg, p, bases)
                data = ([] if single_block is None else [(0, single_block)]) + list(
                    zip((1, 2, 3), probe_blocks))
                assert [len(block.z) for _, block in data] == [3] * len(data)
                for k in range(3):
                    got = [(j, _row_bits(block, k, full)) for j, block in data]
                    assert [j for j, _ in got] == list(data_sets), (bases, p)
                    for j, bits in got:
                        assert bits == want[j][k], (scheme, bases, p, j, k)


def test_estimate_once_draws_realization_one_only(bench_setup, bench_process):
    # estimate_once draws one realization of each stream: realization 1
    # does not depend on m_reps, and estimate_once at m_reps = 10**6 costs
    # what it costs at 2, far below the seconds a draw of 10**6 would take.
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
