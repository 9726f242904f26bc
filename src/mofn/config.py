"""Training settings.

Kept apart from `network` so that reading the defaults, as the command
line help does, does not load numpy.
"""

from __future__ import annotations

from .errors import TrainingError
from .record import record


@record
class TrainConfig:
    """Growth settings; flags, config files and library calls are checked here."""

    beam_width: int = 64
    max_layers: int = 10
    patience: int = 1
    extended_catalog: bool = False

    def __post_init__(self) -> None:
        for name in TrainConfig._fields:    # not type(self): a dataclass copy checks alike
            value, flag = getattr(self, name), isinstance(getattr(TrainConfig, name), bool)
            if flag != isinstance(value, bool) or not isinstance(value, int):
                expected = "true or false" if flag else "an integer"
                raise TrainingError(f"{name} must be {expected}, got {value!r}")
            if value < 1 and not flag:
                raise TrainingError(f"{name} must be at least 1")
