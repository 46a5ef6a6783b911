"""Tests for the dispatcher→worker SPSC channel cost."""

import pytest

from repro.server.config import CHANNEL_OP_US, ServerConfig


class TestSpscChannel:
    def test_default_cost_matches_paper(self):
        # 88 cycles at 2.6 GHz ~= 33.8 ns.
        assert ServerConfig.prototype().channel_delay_us == pytest.approx(CHANNEL_OP_US)
        assert CHANNEL_OP_US == pytest.approx(0.0338, rel=0.01)
