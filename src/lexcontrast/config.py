"""The trainers' settings and their refusal.

Each field is a training option of the command line, under the same name
and default (a None default is the command line's 0, "off"), and its bound
is checked here. This module imports no numpy, so the command line checks
the training options before numpy loads; `embeddings` takes both names from
here.
"""

from __future__ import annotations

from dataclasses import dataclass


class TrainingError(ValueError):
    pass


@dataclass(frozen=True)
class TrainingConfig:
    """Knobs for both trainers; contrast fields are inert for plain SGNS."""

    dim: int = 500
    negatives: int = 15
    window: int = 5
    learning_rate: float = 0.025
    epochs: int = 1
    subsample: float | None = 1e-5  # None disables the frequency cut
    min_count: int = 100
    beta: float = 1.0  # the weight of the lexical-contrast term
    max_contrast_neighbors: int | None = None
    noise_exponent: float = 0.75
    seed: int = 0
    threads: int = 1  # only 1 is accepted; the field keeps configs that set it working
    track_objective: bool = False

    def __post_init__(self):
        for name, low in (("min_count", 1), ("window", 1), ("dim", 1), ("negatives", 1), ("epochs", 1),
                          ("noise_exponent", 0), ("beta", 0), ("seed", 0)):
            if not getattr(self, name) >= low:  # a NaN fails too
                raise TrainingError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not self.learning_rate > 0:
            raise TrainingError(f"learning rate must be > 0, got {self.learning_rate}")
        if self.threads != 1:
            raise TrainingError(f"threads must be 1, got {self.threads}: training runs in one thread")
        if self.subsample is not None and not self.subsample > 0:
            raise TrainingError("subsample threshold must be > 0 or None")
        if self.max_contrast_neighbors is not None and self.max_contrast_neighbors < 1:
            raise TrainingError("max_contrast_neighbors must be >= 1 or None")
