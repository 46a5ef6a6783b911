"""The batched :meth:`P2Quantile.update_many` against the textbook loop
form.

:class:`ReferenceP2` is the loop-form update exactly as the estimator
first shipped it: a per-update increments list, a cell-search loop and a
marker-adjustment loop.  The shipped estimator unrolls that work and
runs it over a whole block of values with the markers in locals, and it
must leave every marker height, marker position and desired position
bit-identical after every block, however a stream is split — on the
heavy-tailed streams the tail monitors see, on tie-heavy streams, on
NaN and infinities, and on streams too short to initialise the markers.
The :class:`TailMonitor` that buffers latencies into such blocks must
read the same at every read as one fed value by value.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.percentiles import P2Quantile, percentile
from repro.telemetry import MetricsRegistry
from repro.telemetry.export import prometheus_text
from repro.trace import TailMonitor
from repro.trace import monitor as monitor_module


class ReferenceP2:
    """The loop-form P² update (Jain & Chlamtac, 1985)."""

    def __init__(self, q):
        self.q = q
        self._initial = []
        self._n = None
        self._np = None
        self._heights = None
        self.count = 0

    def update(self, x):
        self.count += 1
        if self._heights is None:
            self._initial.append(x)
            if len(self._initial) == 5:
                self._initial.sort()
                self._heights = list(self._initial)
                self._n = [0, 1, 2, 3, 4]
                q = self.q
                self._np = [0.0, 2 * q, 4 * q, 2 + 2 * q, 4.0]
            return
        heights, n, n_desired = self._heights, self._n, self._np
        if x < heights[0]:
            heights[0] = x
            k = 0
        elif x >= heights[4]:
            heights[4] = x
            k = 3
        else:
            k = 0
            for i in range(1, 5):
                if x < heights[i]:
                    k = i - 1
                    break
        for i in range(k + 1, 5):
            n[i] += 1
        q = self.q
        increments = [0.0, q / 2, q, (1 + q) / 2, 1.0]
        for i in range(5):
            n_desired[i] += increments[i]
        for i in range(1, 4):
            d = n_desired[i] - n[i]
            if (d >= 1 and n[i + 1] - n[i] > 1) or (d <= -1 and n[i - 1] - n[i] < -1):
                sign = 1 if d >= 1 else -1
                candidate = self._parabolic(i, sign)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, sign)
                n[i] += sign

    def update_many(self, xs):
        for x in xs:
            self.update(x)

    def _parabolic(self, i, sign):
        h, n = self._heights, self._n
        return h[i] + sign / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + sign) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - sign) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i, sign):
        h, n = self._heights, self._n
        return h[i] + sign * (h[i + sign] - h[i]) / (n[i + sign] - n[i])

    def value(self):
        if self._heights is not None:
            return self._heights[2]
        if not self._initial:
            return float("nan")
        return percentile(self._initial, self.q * 100.0)


def _state(est) -> str:
    """Every marker field, as text that tells 0.0 from -0.0."""
    return repr((est._initial, est._heights, est._n, est._np, est.count))


QUANTILES = st.sampled_from([0.5, 0.9, 0.99, 0.999])

#: 1 us requests with a rare ~100x long mode, jittered.
BIMODAL = st.lists(
    st.one_of(
        st.floats(min_value=1.0, max_value=1.1),
        st.floats(min_value=1.0, max_value=1.1),
        st.floats(min_value=1.0, max_value=1.1),
        st.floats(min_value=100.0, max_value=110.0),
    ),
    min_size=5,
    max_size=400,
)


@st.composite
def lognormal(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    size = draw(st.integers(min_value=5, max_value=600))
    sigma = draw(st.sampled_from([0.5, 1.2, 2.5]))
    rng = np.random.default_rng(seed)
    return [float(v) for v in rng.lognormal(mean=2.0, sigma=sigma, size=size)]


#: Few distinct values: markers collide and gaps hit their edge cases.
TIES = st.lists(st.sampled_from([0.0, 1.0, 2.0, 5.0, 500.0]), min_size=5, max_size=300)

#: Too short to initialise the five markers.
SHORT = st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=4)

#: Monotone ramps drive the markers against their neighbours.
RAMPS = st.tuples(
    st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=5, max_size=300),
    st.booleans(),
).map(lambda pair: sorted(pair[0], reverse=pair[1]))

STREAMS = st.one_of(BIMODAL, lognormal(), TIES, SHORT, RAMPS)

#: NaN and infinities: unordered values still take the textbook's cells.
UNORDERED = st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=60)


class TestUpdateMatchesLoopForm:
    @given(q=QUANTILES, values=STREAMS)
    @settings(max_examples=300, deadline=None)
    def test_markers_identical_after_every_update(self, q, values):
        est, ref = P2Quantile(q), ReferenceP2(q)
        for x in values:
            est.update(x)
            ref.update(x)
            assert _state(est) == _state(ref)
        assert repr(est.value()) == repr(ref.value())

    @given(values=UNORDERED)
    @settings(max_examples=200, deadline=None)
    def test_unordered_values_take_the_same_cells(self, values):
        est, ref = P2Quantile(0.9), ReferenceP2(0.9)
        for x in values:
            est.update(x)
            ref.update(x)
            assert _state(est) == _state(ref)


class TestUpdateManyMatchesLoopForm:
    @given(q=QUANTILES, values=st.one_of(STREAMS, UNORDERED), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_markers_identical_after_every_block(self, q, values, data):
        cuts = data.draw(st.lists(st.integers(0, len(values)), max_size=8))
        est, ref = P2Quantile(q), ReferenceP2(q)
        start = 0
        for end in sorted(cuts) + [len(values)]:
            est.update_many(values[start:end])
            ref.update_many(values[start:end])
            assert _state(est) == _state(ref)
            start = end


def _snapshots(pct, typed_values, reads=None):
    """Read ``monitor`` after the values whose index is in ``reads``
    (every one when None), each read through one of its read paths."""
    monitor = TailMonitor(pct=pct)
    registry = MetricsRegistry()
    monitor.register_gauges(registry)

    def gauges():
        registry.collect(0.0)
        return prometheus_text(registry)

    readers = (
        lambda: monitor.snapshot(),
        lambda: (monitor.count(), monitor.snapshot()),
        lambda: (monitor.estimate(), monitor.snapshot()),
        lambda: (monitor.count(7), monitor.estimate(1), monitor.snapshot()),
        lambda: (gauges(), monitor.snapshot()),
    )
    out = []
    for index, (type_id, value) in enumerate(typed_values):
        monitor.observe(type_id, value)
        if reads is None or index in reads:
            out.append(repr(readers[index % len(readers)]()))
    out.append(repr(monitor.snapshot()))
    return out


class TestTailMonitorMatchesLoopForm:
    @given(
        pct=st.sampled_from([90.0, 99.0, 99.9]),
        typed_values=st.lists(
            st.tuples(
                st.sampled_from([0, 1, 7]),
                st.one_of(
                    st.floats(min_value=0.5, max_value=2.0),
                    st.floats(min_value=400.0, max_value=600.0),
                ),
            ),
            max_size=300,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_snapshots_identical(self, pct, typed_values):
        with mock.patch.object(monitor_module, "P2Quantile", ReferenceP2):
            expected = _snapshots(pct, typed_values)
        assert _snapshots(pct, typed_values) == expected

    @given(
        pct=st.sampled_from([90.0, 99.9]),
        typed_values=st.lists(
            st.tuples(
                st.sampled_from([0, 1, 7]),
                st.floats(min_value=0.5, max_value=600.0),
            ),
            min_size=monitor_module.FEED_BLOCK,
            max_size=4 * monitor_module.FEED_BLOCK,
        ),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_reads_across_the_feed_block_match_eager_feeding(
        self, pct, typed_values, data
    ):
        """Sparse reads: blocks fill to the cap and drain on their own
        between reads, and each read sees what value-by-value feeding
        of the loop form gives."""
        indices = st.integers(0, len(typed_values) - 1)
        reads = set(data.draw(st.lists(indices, max_size=6)))
        eager = mock.patch.object(monitor_module, "FEED_BLOCK", 1)
        with mock.patch.object(monitor_module, "P2Quantile", ReferenceP2), eager:
            expected = _snapshots(pct, typed_values, reads)
        assert _snapshots(pct, typed_values, reads) == expected
