"""Synthetic interaction-requiring task generator."""

import hashlib
import math

import numpy as np
import pytest

from emap.exceptions import InputError
from emap.synth import SynthParams, generate, generate_with_audit

# text, visual, labels and split of SynthParams(n=300, d1=7, d2=5, seed=11), as generated
# when rejection sampling took its norms with np.linalg.norm
DIGEST_N300_SEED11 = "c3e0743a47e8ad2170bce17a58d4f6e71c926daa9b866d695b3371b6c675febb"


class TestParams:
    def test_defaults_validate(self):
        SynthParams().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"d": 0},
            {"n": 0},
            {"delta": 1.0},
            {"delta": -0.1},
            {"split": (0.5, 0.5, 0.0)},
            {"split": (0.6, 0.3, 0.2)},
        ],
    )
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(InputError):
            SynthParams(**kwargs).validate()


class TestGenerate:
    def test_audit_invariants(self):
        params = SynthParams(n=400, seed=3)
        ds, audit = generate_with_audit(params)
        # margin respected, latents unit norm, labels recoverable
        assert np.all(np.abs(audit.dots) > params.delta)
        np.testing.assert_allclose(np.linalg.norm(audit.latent_v, axis=1), 1.0, atol=1e-10)
        np.testing.assert_allclose(np.linalg.norm(audit.latent_t, axis=1), 1.0, atol=1e-10)
        assert np.array_equal(ds.labels, (audit.dots > 0).astype(np.int64))
        assert ds.d1 == params.d1 and ds.d2 == params.d2

    def test_no_rejection_when_delta_zero(self):
        _, audit = generate_with_audit(SynthParams(d=2, delta=0.0, n=100, seed=1))
        assert np.all(audit.attempts == 1)

    def test_unreachable_margin_raises(self):
        # at d=100 the latent dot concentrates near 0, so |dot| > .99 never happens
        with pytest.raises(InputError, match="rejection sampling exhausted"):
            generate(SynthParams(d=100, delta=0.99, n=1, split=(0.4, 0.3, 0.3), seed=0))

    def test_determinism(self):
        a = generate(SynthParams(n=300, seed=11))
        b = generate(SynthParams(n=300, seed=11))
        assert a.text.tobytes() == b.text.tobytes()
        assert a.visual.tobytes() == b.visual.tobytes()
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.split, b.split)
        c = generate(SynthParams(n=300, seed=12))
        assert a.text.tobytes() != c.text.tobytes()

    def test_split_counts(self):
        ds = generate(SynthParams(n=10, seed=0))
        counts = np.bincount(ds.split, minlength=3)
        assert counts.sum() == 10 and counts.min() >= 1
        big = generate(SynthParams(n=1000, seed=0))
        np.testing.assert_array_equal(np.bincount(big.split), [800, 100, 100])

    def test_class_balance_near_half(self):
        ds = generate(SynthParams(seed=5))
        assert 0.45 <= ds.labels.mean() <= 0.55

    def test_config_embedded(self):
        ds = generate(SynthParams(n=50, seed=2))
        assert ds.meta["params"]["seed"] == 2
        assert ds.meta["params"]["delta"] == 0.25

    def test_norms_have_the_bits_of_linalg_norm(self):
        """Rejection sampling takes ``math.sqrt(x @ x)``, which is how numpy takes a float vector's norm."""
        rng = np.random.default_rng(16)
        for d in (*range(1, 70), 128, 1000):
            for scale in (1e-160, 1.0, 1e150):
                x = rng.standard_normal(d) * scale
                assert math.sqrt(x @ x) == np.linalg.norm(x), (d, scale)

    def test_dataset_bytes_are_pinned(self):
        ds = generate(SynthParams(n=300, d1=7, d2=5, seed=11))
        digest = hashlib.sha256(b"".join(a.tobytes() for a in (ds.text, ds.visual, ds.labels, ds.split)))
        assert digest.hexdigest() == DIGEST_N300_SEED11

    def test_point_streams_are_prefix_stable(self):
        """Growing n extends the dataset: earlier points and projections are unchanged."""
        small = generate(SynthParams(n=60, seed=8))
        large = generate(SynthParams(n=90, seed=8))
        np.testing.assert_array_equal(large.text[:60], small.text)
        np.testing.assert_array_equal(large.visual[:60], small.visual)
        np.testing.assert_array_equal(large.labels[:60], small.labels)
