"""Run configuration with environment-variable overrides.

All knobs can be set through DYNW_* environment variables so batch runs are
reproducible without config files:

    DYNW_ENUMERATION_CAP   hard cap on finite-field enumerations, classify
                           candidates and sweep parameters (default 10^7)
    DYNW_MAX_DYNATOMIC_N   largest n for dynatomic polynomial construction
                           (at most 11, the default: level 11 takes about 40 s
                           and 1.1 GB, level 12 more memory than a 7 GB machine
                           has)

DYNW_OUTPUT_FORMAT (json | text) is not a run setting: no library function
reads it.  `cli.dispatch` reads and checks it, and it decides only how a
command's report is printed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

MAX_DYNATOMIC_N = 11


@dataclass
class RunConfig:
    enumeration_cap: int = 10_000_000
    max_dynatomic_n: int = MAX_DYNATOMIC_N

    def __post_init__(self) -> None:
        if self.enumeration_cap <= 0 or self.max_dynatomic_n <= 0:
            raise ValueError("all configuration caps must be positive")
        if self.max_dynatomic_n > MAX_DYNATOMIC_N:
            raise ValueError(
                f"max_dynatomic_n must be at most {MAX_DYNATOMIC_N}, got {self.max_dynatomic_n}"
            )


def from_env(**overrides) -> RunConfig:
    """Build a RunConfig from DYNW_* environment variables plus explicit overrides.

    A malformed value raises ValueError naming the variable.
    """
    kwargs = {}
    env = os.environ
    for key, name in (
        ("enumeration_cap", "DYNW_ENUMERATION_CAP"),
        ("max_dynatomic_n", "DYNW_MAX_DYNATOMIC_N"),
    ):
        if name in env:
            try:
                kwargs[key] = int(env[name])
            except ValueError:
                raise ValueError(f"{name} must be an integer, got {env[name]!r}") from None
    kwargs.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**kwargs)


DEFAULT = RunConfig()
