"""Server model: workers, configuration, the scheduling pipeline."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".config": ("SIMULATION_WORKERS", "TESTBED_WORKERS", "ServerConfig"),
        ".server": ("Server",),
        ".worker": ("Worker",),
    },
)
