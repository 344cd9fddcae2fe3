"""Paired two-modality datasets with train/val/test split tags."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import SPLIT_NAMES
from .exceptions import InputError

__all__ = ["SPLIT_NAMES", "PairedDataset"]

_SPLIT_CODES = {name: i for i, name in enumerate(SPLIT_NAMES)}


@dataclass(frozen=True, eq=False)
class PairedDataset:
    """Labeled (text, visual, label) triples with per-item split tags.

    ``text`` is (n, d1), ``visual`` is (n, d2), ``labels`` integer class
    indices in [0, num_classes).  ``split`` holds int8 codes into
    ``SPLIT_NAMES``.  ``meta`` carries the generating config for provenance.
    """

    text: np.ndarray
    visual: np.ndarray
    labels: np.ndarray
    split: np.ndarray
    num_classes: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        text = np.asarray(self.text, dtype=np.float64)
        visual = np.asarray(self.visual, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        split = np.asarray(self.split, dtype=np.int8)
        if text.ndim != 2 or visual.ndim != 2:
            raise InputError("text and visual features must be 2-D (items x dims)")
        n = text.shape[0]
        if visual.shape[0] != n or labels.shape != (n,) or split.shape != (n,):
            raise InputError("text, visual, labels and split must have matching lengths")
        if n < 1:
            raise InputError("dataset must contain at least one item")
        if not np.all(np.isfinite(text)) or not np.all(np.isfinite(visual)):
            raise InputError("non-finite feature values")
        if self.num_classes < 2:
            raise InputError("num_classes must be >= 2")
        if labels.min() < 0 or labels.max() >= self.num_classes:
            raise InputError(
                f"labels must lie in [0, {self.num_classes}), got range "
                f"[{labels.min()}, {labels.max()}]"
            )
        if split.min() < 0 or split.max() >= len(SPLIT_NAMES):
            raise InputError("split codes must index into SPLIT_NAMES")
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "visual", visual)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "split", split)

    @property
    def n(self) -> int:
        return self.text.shape[0]

    @property
    def d1(self) -> int:
        return self.text.shape[1]

    @property
    def d2(self) -> int:
        return self.visual.shape[1]

    def split_names(self) -> list[str]:
        return [SPLIT_NAMES[c] for c in self.split]

    def subset(self, split: str) -> "PairedDataset":
        """Items carrying the given split tag; errors if the split is empty."""
        if split not in _SPLIT_CODES:
            raise InputError(f"unknown split {split!r}; expected one of {SPLIT_NAMES}")
        mask = self.split == _SPLIT_CODES[split]
        if not mask.any():
            raise InputError(f"split {split!r} is empty")
        return self.take(mask)

    def take(self, indices: np.ndarray) -> "PairedDataset":
        """Items at ``indices`` (positions or a boolean mask), in that order."""
        return PairedDataset(
            text=self.text[indices],
            visual=self.visual[indices],
            labels=self.labels[indices],
            split=self.split[indices],
            num_classes=self.num_classes,
            meta=dict(self.meta),
        )
