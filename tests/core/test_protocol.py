"""Tests for the §5.1 type-id request header."""

import struct

from repro.core.protocol import HEADER_LEN, MAGIC, encode_request, peek_type


class TestPeekType:
    def test_encode_then_peek_round_trips(self):
        payload = encode_request(7, 4, 1.0, b"body")
        assert peek_type(payload) == 4
        assert len(payload) == HEADER_LEN + len(b"body")

    def test_negative_type_id_survives(self):
        # UNKNOWN_TYPE (-1) must survive the signed field.
        assert peek_type(encode_request(1, -1, 0.0)) == -1

    def test_header_starts_with_magic(self):
        assert struct.unpack_from("<I", encode_request(1, 0, 0.0))[0] == MAGIC

    def test_too_short_returns_none(self):
        assert peek_type(b"xx") is None
        assert peek_type(encode_request(1, 0, 0.0)[: HEADER_LEN - 1]) is None

    def test_bad_magic_returns_none(self):
        assert peek_type(b"\x00" * HEADER_LEN) is None
