"""Training settings.

Kept apart from `network` so that reading the defaults, as the command
line help does, does not load numpy.
"""

from __future__ import annotations

from .errors import TrainingError
from .record import record


@record(frozen=True)
class TrainConfig:
    beam_width: int = 64
    max_layers: int = 10
    patience: int = 1
    extended_catalog: bool = False

    def __post_init__(self) -> None:
        if self.beam_width < 1:
            raise TrainingError("beam_width must be at least 1")
        if self.max_layers < 1:
            raise TrainingError("max_layers must be at least 1")
        if self.patience < 1:
            raise TrainingError("patience must be at least 1")
