"""Runtime configuration shared by the comparison, set and CLI layers,
and the names and default seed of the check suites."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ValidationError

# The command line reads these without loading the suites; checks.py
# binds each name to its runner.
SUITE_NAMES = ("pair-algebra", "set-metric", "integral-laws", "beppo-levi",
               "fatou", "riesz-fischer", "paper-examples")
DEFAULT_SEED = 1729


@dataclass(frozen=True)
class Config:
    # enclosure precision in bits; 1024 bounds one zeta(p) sum to under 1 s
    precision_bits: int = 256
    # how often a Cantor copy may split before NotRepresentable
    depth_cap: int = 40

    def __post_init__(self):
        if self.precision_bits < 64:
            raise ValidationError("precision_bits must be at least 64")
        if self.precision_bits > 1024:
            raise ValidationError("precision_bits must be at most 1024")
        if self.depth_cap < 8:
            raise ValidationError("depth_cap must be at least 8")
        if self.depth_cap > 1000:
            raise ValidationError("depth_cap must be at most 1000")


_current = Config()


def get_config() -> Config:
    return _current


def set_config(cfg: Config) -> Config:
    """Install cfg as the ambient configuration. Returns the previous one."""
    global _current
    previous = _current
    _current = cfg
    return previous


def update_config(**kwargs) -> Config:
    """Replace selected fields of the ambient configuration."""
    return set_config(replace(_current, **kwargs))
