"""Run configuration with environment-variable overrides.

The one run setting, the enumeration cap, can be set through an
environment variable so batch runs are reproducible without config files:

    DYNW_ENUMERATION_CAP   hard cap on finite-field enumerations, classify
                           candidates and sweep parameters (default 10^7)

The dynatomic level cap is not a setting: it is the constant
dynatomic.MAX_DYNATOMIC_N.  DYNW_OUTPUT_FORMAT (json | text) is not a run
setting either: no library function reads it.  `cli.dispatch` reads and
checks it, and it decides only how a command's report is printed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass
class RunConfig:
    enumeration_cap: int = 10_000_000

    def __post_init__(self) -> None:
        if self.enumeration_cap <= 0:
            raise ValueError("all configuration caps must be positive")


def from_env(**overrides) -> RunConfig:
    """Build a RunConfig from DYNW_* environment variables plus explicit overrides.

    A malformed value raises ValueError naming the variable.
    """
    kwargs = {}
    raw = os.environ.get("DYNW_ENUMERATION_CAP")
    if raw is not None:
        try:
            kwargs["enumeration_cap"] = int(raw)
        except ValueError:
            raise ValueError(f"DYNW_ENUMERATION_CAP must be an integer, got {raw!r}") from None
    kwargs.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**kwargs)


DEFAULT = RunConfig()
