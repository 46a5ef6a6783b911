"""Application substrates: KV store, RocksDB-like store, TPC-C engine."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".inference": (
            "BATCH_TYPE",
            "FULL_TYPE",
            "LIGHT_TYPE",
            "GbdtModel",
            "InferenceService",
            "RegressionTree",
            "make_demo_model",
        ),
        ".kvstore": ("DEFAULT_COSTS", "OP_TYPE_IDS", "KvStore"),
        ".rocksdb": (
            "DEFAULT_KEYS",
            "GET_TYPE",
            "GET_US",
            "SCAN_TYPE",
            "SCAN_US",
            "RocksDbLike",
        ),
        ".tpcc": ("TXN_PROFILE", "TpccDatabase"),
    },
)
