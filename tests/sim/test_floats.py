"""``repeat_add`` against the sequential ``x += d`` loop, bit for bit."""

import math
import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.floats import repeat_add


def sequential(x, d, k):
    for _ in range(k):
        x += d
    return x


def assert_same(x, d, k):
    got = repeat_add(x, d, k)
    want = sequential(x, d, k)
    assert got == want, (x, d, k, got, want)
    # == does not tell 0.0 from -0.0; the bits do.
    assert struct.pack("<d", got) == struct.pack("<d", want), (x, d, k, got, want)


finite = st.floats(allow_nan=False, allow_infinity=False)
counts = st.integers(min_value=0, max_value=300)


@st.composite
def near_power_of_two(draw):
    """A float a few ulps below or above ``2**e`` and a step of a few
    (half-)ulps at that scale: the sum crosses the power of two once."""
    e = draw(st.integers(min_value=-30, max_value=60))
    ulp = math.ldexp(1.0, e - 53)
    x = math.ldexp(1.0, e) + draw(st.integers(min_value=-40, max_value=40)) * ulp
    half_ulps = draw(st.integers(min_value=-16, max_value=16))
    return x, half_ulps * ulp / 2


class TestRepeatAdd:
    @given(finite, finite, counts)
    @settings(max_examples=400, deadline=None)
    @example(1.0, 1e-17, 300)  # every add rounds back to x
    @example(0.0, 2.0, 19)  # from zero through five powers of two
    @example(-3.0, 1.0, 7)  # through zero
    @example(2.0**53 - 4, 1.0, 8)  # whole numbers past 2**53 round
    @example(2.0**53 + 2, -1.0, 3)  # ... and so do those before it
    @example(-(2.0**53 - 1), 2.0**52 + 1, 3)  # k*d rounds, x + k*d would not
    @example(5.0, -0.0, 3)
    @example(-0.0, 0.0, 1)
    def test_any_floats(self, x, d, k):
        assert_same(x, d, k)

    @given(near_power_of_two(), counts)
    @settings(max_examples=400, deadline=None)
    def test_crosses_a_power_of_two_once(self, start, k):
        x, d = start
        assert_same(x, d, k)

    @given(
        st.floats(min_value=0.0, max_value=4.0),
        st.floats(min_value=1e-3, max_value=50.0),
        st.integers(min_value=0, max_value=2_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_crosses_many_powers_of_two(self, x, d, k):
        # A busy-time total growing from near zero by a lap step.
        assert_same(x, d, k)

    @given(
        st.integers(min_value=-20, max_value=40),
        st.one_of(
            st.integers(min_value=0, max_value=200),
            st.integers(min_value=2**52 - 200, max_value=2**52 - 1),
        ),
        st.integers(min_value=0, max_value=7),
        st.sampled_from([1.0, -1.0]),
        counts,
    )
    @settings(max_examples=400, deadline=None)
    @example(0, 2**52 - 3, 0, 1.0, 20)  # odd, ties up across 2.0
    @example(1, 3, 2, -1.0, 20)  # odd, ties down across 2.0
    def test_ties_round_to_even(self, e, offset, m, sign, k):
        """``x`` is ``offset`` ulps into the binade ``[2**e, 2**(e+1))``
        and ``d`` is ``m + 1/2`` of those ulps: every add is a tie, odd
        and even multiples round differently, and near either end the
        sum crosses a power of two."""
        ulp = math.ldexp(1.0, e - 52)
        x = math.ldexp(1.0, e) + offset * ulp
        assert_same(x, sign * (m + 0.5) * ulp, k)

    @given(
        st.floats(min_value=1e-3, max_value=1e6),
        st.floats(min_value=1e-3, max_value=100.0),
        counts,
    )
    @settings(max_examples=300, deadline=None)
    @example(100.0, 5.0, 19)  # a 100 us request in 5 us quanta
    @example(100.0, 3.3, 29)
    def test_negative_steps(self, remaining, quantum, k):
        """``remaining -= quantum``: down through powers of two, and
        past zero."""
        assert_same(remaining, -quantum, k)

    @given(
        st.one_of(st.integers(min_value=-10**6, max_value=10**6), finite),
        st.integers(min_value=-1_000, max_value=1_000),
        counts,
    )
    @settings(max_examples=300, deadline=None)
    def test_int_steps(self, x, d, k):
        got = repeat_add(x, d, k)
        want = sequential(x, d, k)
        assert got == want and type(got) is type(want)

    @given(st.integers(min_value=-10**6, max_value=10**6), finite, counts)
    @settings(max_examples=200, deadline=None)
    def test_int_start_float_step(self, x, d, k):
        got = repeat_add(x, d, k)
        assert got == sequential(x, d, k)

    @given(st.one_of(finite, st.integers()), st.one_of(finite, st.integers()))
    def test_zero_adds_return_x(self, x, d):
        got = repeat_add(x, d, 0)
        assert got is x

    def test_infinities_and_nan(self):
        inf = math.inf
        assert repeat_add(inf, 1.0, 5) == inf
        assert math.isnan(repeat_add(inf, -inf, 5))
        assert math.isnan(repeat_add(1.0, math.nan, 5))
        assert repeat_add(1.7e308, 1e307, 10) == sequential(1.7e308, 1e307, 10) == inf
