"""System models: Perséphone, Shenango, Shinjuku."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".base": ("SystemModel",),
        ".persephone": (
            "PersephoneCfcfsSystem",
            "PersephoneDfcfsSystem",
            "PersephoneStaticSystem",
            "PersephoneSystem",
        ),
        ".shenango": ("DEFAULT_STEAL_COST_US", "ShenangoSystem"),
        ".shinjuku": ("ShinjukuSystem",),
    },
)
