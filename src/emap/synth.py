"""Synthetic two-modality task that requires a multiplicative interaction.

Each point starts as two unit-norm latent vectors whose dot-product sign is
the label; a rejection margin keeps the dot product away from zero.  The
latents are then pushed through fixed random projections into "text" and
"visual" feature spaces of different widths.  No additive scorer of the
projected features carries signal, so a linear model stays at chance while
interaction-capable models can solve the task.

RNG contract: PCG64 generators derived from one SeedSequence.  Stream 0
draws the two projection matrices (text then visual), stream 1 shuffles the
split assignment, and streams 2..n+1 drive rejection sampling for one point
each (v first, then t, per attempt).  Identical seeds give byte-identical
datasets; the dataset *format* is the cross-implementation contract, the
exact draws are fixed only within this implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .data import PairedDataset
from .exceptions import GenerationError, InputError

__all__ = ["SynthParams", "SynthAudit", "generate", "generate_with_audit"]

_MAX_ATTEMPTS_PER_POINT = 10_000


@dataclass(frozen=True)
class SynthParams:
    """Generation parameters; defaults are the desk-scale configuration."""

    d: int = 10
    d1: int = 60
    d2: int = 40
    delta: float = 0.25
    n: int = 5000
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)
    seed: int = 0

    def validate(self) -> None:
        if min(self.d, self.d1, self.d2, self.n) < 1:
            raise InputError("d, d1, d2 and n must all be >= 1")
        if not (0.0 <= self.delta < 1.0):
            raise InputError(f"delta must lie in [0, 1), got {self.delta}")
        if len(self.split) != 3 or not all(f > 0 for f in self.split):  # refuses NaN too
            raise InputError("split must be three positive fractions")
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise InputError(f"split fractions must sum to 1, got {sum(self.split)}")

    def to_json_dict(self) -> dict:
        cfg = asdict(self)
        cfg["split"] = list(cfg["split"])
        return cfg


@dataclass(frozen=True)
class SynthAudit:
    """Pre-projection latents and rejection counts, for invariant checking."""

    latent_v: np.ndarray
    latent_t: np.ndarray
    dots: np.ndarray
    attempts: np.ndarray


def _split_counts(n: int, fractions: tuple[float, float, float]) -> list[int]:
    # largest-remainder rounding; every split gets at least one item
    raw = [f * n for f in fractions]
    counts = [int(x) for x in raw]
    remainders = sorted(range(3), key=lambda i: raw[i] - counts[i], reverse=True)
    for i in remainders[: n - sum(counts)]:
        counts[i] += 1
    for i in range(3):
        if counts[i] == 0:
            donor = max(range(3), key=lambda j: counts[j])
            if counts[donor] <= 1:
                raise InputError(f"n={n} is too small for three nonempty splits")
            counts[donor] -= 1
            counts[i] += 1
    return counts


def generate_with_audit(params: SynthParams) -> tuple[PairedDataset, SynthAudit]:
    """Generate a dataset and keep the latent vectors for auditing."""
    params.validate()
    d, d1, d2, n = params.d, params.d1, params.d2, params.n

    streams = np.random.SeedSequence(params.seed).spawn(2 + n)
    proj_rng = np.random.default_rng(streams[0])
    text_proj = proj_rng.uniform(-0.5, 0.5, size=(d1, d))
    visual_proj = proj_rng.uniform(-0.5, 0.5, size=(d2, d))

    latent_v = np.empty((n, d))
    latent_t = np.empty((n, d))
    dots = np.empty(n)
    attempts = np.zeros(n, dtype=np.int64)
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        rng = np.random.default_rng(streams[2 + i])
        for _ in range(_MAX_ATTEMPTS_PER_POINT):
            attempts[i] += 1
            v = rng.standard_normal(d)
            t = rng.standard_normal(d)
            # the bits of np.linalg.norm, which takes a float vector's norm as sqrt(x.dot(x))
            v_norm = math.sqrt(v @ v)
            t_norm = math.sqrt(t @ t)
            if v_norm == 0.0 or t_norm == 0.0:
                continue
            v /= v_norm
            t /= t_norm
            dot = float(v @ t)
            if abs(dot) > params.delta:
                break
        else:
            raise GenerationError(
                f"rejection sampling exhausted {_MAX_ATTEMPTS_PER_POINT} attempts for "
                f"point {i}; delta={params.delta} is too large for d={params.d}"
            )
        latent_v[i] = v
        latent_t[i] = t
        dots[i] = dot
        labels[i] = 1 if dot > 0 else 0

    counts = _split_counts(n, params.split)
    split = np.repeat(np.arange(3, dtype=np.int8), counts)
    order = np.random.default_rng(streams[1]).permutation(n)
    split_tags = np.empty(n, dtype=np.int8)
    split_tags[order] = split

    dataset = PairedDataset(
        text=latent_t @ text_proj.T,
        visual=latent_v @ visual_proj.T,
        labels=labels,
        split=split_tags,
        num_classes=2,
        meta={"generator": "synth", "params": params.to_json_dict()},
    )
    return dataset, SynthAudit(latent_v=latent_v, latent_t=latent_t, dots=dots, attempts=attempts)


def generate(params: SynthParams) -> PairedDataset:
    """Generate a dataset, discarding the audit latents."""
    dataset, _ = generate_with_audit(params)
    return dataset
