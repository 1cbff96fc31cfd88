"""Deterministic RNG derivation: one root seed, salted per stage/stream."""

from __future__ import annotations

import zlib

import numpy as np


def _label_key(label: str | int) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label)
    return zlib.crc32(label.encode("utf-8"))


def seed_sequence(root: int, *labels: str | int) -> np.random.SeedSequence:
    """SeedSequence for `root` salted with stable per-label keys."""
    return np.random.SeedSequence([int(root)] + [_label_key(l) for l in labels])


def rng_for(root: int, *labels: str | int) -> np.random.Generator:
    """Independent generator for one named random stream."""
    return np.random.default_rng(seed_sequence(root, *labels))
