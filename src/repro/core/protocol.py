"""The simple request protocol of §5.1.

"To interact with the server, we use a simple protocol where TPC-C
transaction ID, RocksDB query ID, and synthetic workload request types
are located in the requests' header."  A header classifier
(:class:`~repro.core.classifier.CallableClassifier` over
:func:`peek_type`) reads the type field and nothing else.

Wire format (little endian):

====== ======= ==========================================
offset size    field
====== ======= ==========================================
0      4       magic (0x50455250, "PERP")
4      8       request id
12     4       request type id (signed; -1 = unknown)
16     8       client timestamp (us, float64)
24     4       body length
28     n       body (opaque application bytes)
====== ======= ==========================================
"""

from __future__ import annotations

import struct
from typing import Optional

MAGIC = 0x50455250
_HEADER = struct.Struct("<IqidI")
HEADER_LEN = _HEADER.size


def encode_request(rid: int, type_id: int, timestamp_us: float, body: bytes = b"") -> bytes:
    """Serialize a request into its wire payload."""
    return _HEADER.pack(MAGIC, rid, type_id, timestamp_us, len(body)) + body


def peek_type(payload: bytes) -> Optional[int]:
    """Read just the type field — what a fast header classifier does.

    Returns None when the payload is unparseable.
    """
    if len(payload) < HEADER_LEN:
        return None
    magic = struct.unpack_from("<I", payload, 0)[0]
    if magic != MAGIC:
        return None
    return struct.unpack_from("<i", payload, 12)[0]
