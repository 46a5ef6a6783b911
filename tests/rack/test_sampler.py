"""RawSampler against numpy: every draw, and the generator state after it.

A twin generator seeded alike draws through ``Generator.choice(n, k,
replace=False)`` and ``Generator.integers(0, n)`` while the sampler
serves the same calls from blocks of raw PCG64 output.  Every value must
be equal, and so must the state numpy's calls leave (the sampler rewinds
over unread block outputs to report it), whatever the block size and
whether or not the generator had a buffered 32-bit half to start with.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim.randomness import RawSampler

BLOCKS = (1, 3, 4096)


def _sample_op(n):
    return st.tuples(st.just("sample"), st.just(n), st.integers(1, n))


#: One call: ("sample", n, k), ("pair", n) or ("bounded", n), the last
#: standing for ``integers(0, n)``.
OPS = st.one_of(
    st.integers(1, 300).flatmap(_sample_op),
    st.tuples(st.just("pair"), st.integers(2, 300)),
    st.tuples(st.just("bounded"), st.integers(1, 2**32)),
)


def _twins(seed, block, buffered):
    """A sampler and a numpy twin on equal streams; with ``buffered``
    both start after one ``integers(0, 10)``, which leaves the high half
    of a raw output buffered."""
    mine = np.random.default_rng(seed)
    twin = np.random.default_rng(seed)
    if buffered:
        assert mine.integers(0, 10) == twin.integers(0, 10)
        assert twin.bit_generator.state["has_uint32"] == 1
    return RawSampler(mine, block), twin


def _call(sampler, twin, op):
    kind, n = op[0], op[1]
    if kind == "sample":
        k = op[2]
        return sampler.sample(n, k), twin.choice(n, k, replace=False).tolist()
    if kind == "pair":
        return list(sampler.pair(n)), twin.choice(n, 2, replace=False).tolist()
    return sampler.bounded(n - 1), int(twin.integers(0, n))


class TestAgainstNumpy:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        block=st.sampled_from(BLOCKS),
        buffered=st.booleans(),
        ops=st.lists(OPS, min_size=1, max_size=12),
    )
    @example(seed=0, block=1, buffered=False, ops=[("sample", 1, 1), ("bounded", 1)])
    @example(seed=1, block=3, buffered=True, ops=[("sample", 300, 300), ("pair", 2)])
    @example(seed=2, block=4096, buffered=True, ops=[("sample", 7, 7), ("sample", 1, 1)])
    def test_interleaved_calls_match(self, seed, block, buffered, ops):
        sampler, twin = _twins(seed, block, buffered)
        for op in ops:
            got, want = _call(sampler, twin, op)
            assert got == want, op
            assert sampler.state() == twin.bit_generator.state, op

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("n,k", [(32, 2), (31, 2), (32, 8), (7, 3), (3, 2), (100, 5)])
    def test_many_rack_sized_samples_match(self, block, n, k):
        # Thousands of calls cross many block boundaries.
        sampler, twin = _twins(n * 1000 + k, block, buffered=False)
        for _ in range(3_000):
            assert sampler.sample(n, k) == twin.choice(n, k, replace=False).tolist()
        assert sampler.state() == twin.bit_generator.state

    @pytest.mark.parametrize("n,k", [(10_001, 200), (20_000, 400), (50_000, 2)])
    def test_large_populations_on_the_floyd_path_match(self, n, k):
        sampler, twin = _twins(n + k, 4096, buffered=False)
        for _ in range(20):
            assert sampler.sample(n, k) == twin.choice(n, k, replace=False).tolist()
            assert list(sampler.pair(n)) == twin.choice(n, 2, replace=False).tolist()
        assert sampler.state() == twin.bit_generator.state

    @pytest.mark.parametrize("n", [2, 3, 32, 1_000_003, 2**31 + 1, 2**32])
    def test_integers_match_across_blocks(self, n):
        sampler, twin = _twins(n, 4096, buffered=True)
        for _ in range(10_000):
            assert sampler.bounded(n - 1) == twin.integers(0, n)
        assert sampler.state() == twin.bit_generator.state

    def test_zero_bound_draws_nothing(self):
        sampler, twin = _twins(5, 1, buffered=True)
        before = twin.bit_generator.state
        assert sampler.bounded(0) == 0 == twin.integers(0, 1)
        assert sampler.state() == before == twin.bit_generator.state


class TestValidation:
    def test_non_pcg64_generator_is_refused(self):
        with pytest.raises(ConfigurationError):
            RawSampler(np.random.Generator(np.random.MT19937(0)))

    def test_block_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            RawSampler(np.random.default_rng(0), block=0)

    @pytest.mark.parametrize(
        "n,k", [(0, 0), (3, 4), (3, -1), (10_001, 201), (20_000, 401)]
    )
    def test_sample_off_numpys_floyd_path_is_refused(self, n, k):
        with pytest.raises(ConfigurationError):
            RawSampler(np.random.default_rng(0)).sample(n, k)
