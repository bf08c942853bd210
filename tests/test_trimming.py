from __future__ import annotations

import numpy as np
import pytest

from signweave.motion import GlossClip, MotionSequence
from signweave.trimming import (
    LAMBDA_V,
    TrimConfig,
    apply_margins,
    detect_boundaries,
    motion_energy,
    normalize_energy,
    trim,
)


class TestMotionEnergy:
    def test_constant_is_zero(self):
        x = MotionSequence(np.full((10, 206), 2.0))
        assert np.all(motion_energy(x) == 0)

    def test_unit_jump_hand_computed(self):
        d = 206
        frames = np.zeros((10, d))
        frames[5:, 0] = 1.0  # unit step between frames 4 and 5
        e = motion_energy(MotionSequence(frames))
        cfg = TrimConfig()
        # raw diffs: delta at t=4 only; second diffs spike at t=3 (+1) and t=4 (-1)
        assert e[4] == pytest.approx((LAMBDA_V + cfg.lambda_a) / d, abs=1e-15)
        assert e[3] == pytest.approx(cfg.lambda_a / d, abs=1e-15)
        assert e[2] == 0.0 and e[6] == 0.0

    def test_velocity_only_ramp(self):
        c = 0.31
        frames = (c * np.arange(12.0))[:, None]
        cfg = TrimConfig(lambda_a=0.0)
        e = motion_energy(MotionSequence(frames), cfg)
        assert np.allclose(e, LAMBDA_V * c**2, atol=1e-12)


class TestNormalizeAndGate:
    def test_constant_energy_degenerate(self):
        e = np.full(20, 3.0)
        scaled, flags = normalize_energy(e)
        assert "degenerate-energy" in flags
        assert np.all(scaled == 0)

    def test_no_posture_passes_through(self):
        e = np.concatenate([np.zeros(10), np.ones(10)])
        scaled, flags = normalize_energy(e)
        assert flags == []
        assert scaled.max() == 1.0 and scaled.min() == 0.0


class TestDetectBoundaries:
    def test_spec_example(self):
        e = np.array([0.0, 0, 1, 1, 1, 0])
        t_on, t_off, fb = detect_boundaries(e, TrimConfig())
        assert (t_on, t_off, fb) == (4, 2, False)

    def test_all_high(self):
        e = np.ones(5)
        t_on, t_off, fb = detect_boundaries(e, TrimConfig())
        assert (t_on, t_off, fb) == (2, 2, False)

    def test_all_low_falls_back(self):
        e = np.zeros(6)
        t_on, t_off, fb = detect_boundaries(e, TrimConfig())
        assert (t_on, t_off, fb) == (0, 5, True)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(11)
        e = rng.uniform(size=60)
        prev_span = None
        for theta in [0.2, 0.35, 0.5, 0.7]:
            cfg = TrimConfig(theta_act=theta)
            t_on, t_off, fb = detect_boundaries(e, cfg)
            if fb:
                break
            span = t_off - t_on
            if prev_span is not None:
                assert span <= prev_span
            prev_span = span


class TestApplyMargins:
    def test_margin_arithmetic(self):
        t_start, t_end, flags = apply_margins(10, 30, 40, TrimConfig())
        assert (t_start, t_end) == (7, 33)
        assert flags == []

    def test_too_short_falls_back(self):
        cfg = TrimConfig()
        # widened span of 5 frames is below t_min=8
        t_start, t_end, flags = apply_margins(20, 21, 60, TrimConfig(margin=1, b_min=0))
        assert (t_start, t_end) == (0, 59)
        assert "span-too-short" in flags

    def test_short_lead_in_not_removed(self):
        # lead-in region of 4 frames is not longer than b_min=5, so keep it
        t_start, t_end, flags = apply_margins(7, 30, 60, TrimConfig())
        assert t_start == 0
        assert t_end == 33

    def test_short_tail_not_removed(self):
        t_start, t_end, flags = apply_margins(10, 52, 60, TrimConfig())
        assert (t_start, t_end) == (7, 59)


def synthetic_clip(t=60, active=(15, 44), d=4, amp=2.0, seed=0):
    """Rest pose with a strong sinusoidal burst inside the active span."""
    rng = np.random.default_rng(seed)
    frames = np.zeros((t, d))
    lo, hi = active
    steps = hi - lo + 1
    phase = np.linspace(0, 4 * np.pi, steps)
    for k in range(d):
        frames[lo : hi + 1, k] = amp * np.sin(phase + rng.uniform(0, np.pi))
    return GlossClip("TEST", MotionSequence(frames), (0, t - 1))


class TestTrim:
    def test_span_contains_detected_run(self):
        clip = synthetic_clip()
        result = trim(clip)
        assert not result.flags
        assert result.t_start <= result.t_on <= result.t_off <= result.t_end

    def test_trims_long_idle_regions(self):
        clip = synthetic_clip(t=80, active=(30, 55))
        result = trim(clip)
        assert result.t_start > 0
        assert result.t_end < 79
        # retained span covers the active burst up to the margin
        assert result.t_start <= 30
        assert result.t_end >= 55

    def test_constant_clip_falls_back(self):
        clip = GlossClip("IDLE", MotionSequence(np.ones((30, 5))), (0, 29))
        result = trim(clip)
        assert result.span == (0, 29)
        assert "boundary-fallback" in result.flags or "degenerate-energy" in result.flags

    def test_scale_invariance_of_boundaries(self):
        clip = synthetic_clip(seed=3)
        scaled = GlossClip("TEST", MotionSequence(clip.motion.frames * 7.3), (0, 59))
        r1 = trim(clip)
        r2 = trim(scaled)
        assert r1.span == r2.span
