"""Network substrate: packets, the request protocol, NIC, SPSC channels."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".appproto": (
            "MEMCACHED_OPCODES",
            "MemcachedClassifier",
            "RespClassifier",
            "encode_memcached_request",
            "encode_resp_command",
            "parse_memcached_opcode",
            "parse_resp_command",
        ),
        ".channel": ("CHANNEL_OP_CYCLES", "CHANNEL_OP_US", "SpscChannel"),
        ".fragmentation": (
            "COPY_US_PER_BYTE",
            "FRAGMENT_PAYLOAD",
            "FragmentationError",
            "Reassembler",
            "ReassembledMessage",
            "fragment",
            "parse_fragment",
        ),
        ".netstack": ("NetWorker",),
        ".nic": ("BufferPool", "Nic"),
        ".packet": ("DEFAULT_MTU", "HEADERS_LEN", "Packet", "rss_hash"),
        ".protocol": (
            "HEADER_LEN",
            "MAGIC",
            "ProtocolError",
            "decode_request",
            "encode_request",
            "peek_type",
        ),
    },
)
