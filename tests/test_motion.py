from __future__ import annotations

import struct

import numpy as np
import pytest

from signweave.motion import (
    BASE_DIM,
    GlossClip,
    MotionSequence,
    PartLayout,
    read_motion,
    resample_frames,
    savgol_smooth,
    temporal_diff,
    write_motion,
)


def seq(arr, fps=25):
    return MotionSequence(np.asarray(arr, dtype=np.float64), fps)


class TestPartLayout:
    def test_base_partitions_full_axis(self):
        layout = PartLayout.base()
        assert layout.dim == BASE_DIM == 206
        covered = np.zeros(206, dtype=int)
        for part in ["body", "expression", "jaw", "rhand", "lhand"]:
            covered[layout.indices(part)] += 1
        assert np.all(covered == 1)

    def test_group_indices_partition(self):
        layout = PartLayout.base()
        groups = [layout.group_indices(g) for g in ["body", "face", "hand"]]
        merged = np.sort(np.concatenate(groups))
        assert np.array_equal(merged, np.arange(layout.dim))

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            PartLayout(body=(0, 63), expression=(64, 114), jaw=(114, 117), rhand=(117, 162), lhand=(162, 207))

    def test_part_weights(self):
        layout = PartLayout.base()
        w = layout.part_weights(1.0, 3.0, 15.0)
        assert w[0] == 1.0 and w[64] == 3.0 and w[114] == 3.0 and w[120] == 15.0 and w[205] == 15.0


class TestConcat:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MotionSequence(np.zeros((0, 4)))


class TestResample:
    def test_identity_is_bitwise_equal(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(9, 5))
        out = resample_frames(x, 9)
        assert np.array_equal(out, x)

    def test_linear_ramp(self):
        ramp = np.linspace(0.0, 1.0, 5)[:, None]
        out = resample_frames(ramp, 9)
        assert np.allclose(out[:, 0], np.arange(9) / 8.0, atol=1e-15)

    def test_endpoints_preserved(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(7, 3))
        out = resample_frames(x, 4)
        assert np.allclose(out[0], x[0])
        assert np.allclose(out[-1], x[-1])

    def test_round_trip_vs_composed_interpolant_oracle(self):
        # oracle: evaluate the composition of the two piecewise-linear maps directly
        rng = np.random.default_rng(2)
        x = rng.normal(size=(7, 2))
        mid = resample_frames(x, 3)
        back = resample_frames(mid, 7)

        grid7 = np.linspace(0.0, 1.0, 7)
        grid3 = np.linspace(0.0, 1.0, 3)
        oracle = np.empty_like(back)
        for d in range(2):
            mid_oracle = np.interp(grid3, grid7, x[:, d])
            oracle[:, d] = np.interp(grid7, grid3, mid_oracle)
        assert np.allclose(back, oracle, atol=1e-14)

    def test_affine_exact_for_any_t_out(self):
        t = np.linspace(0.0, 1.0, 6)
        x = (2.5 * t - 1.0)[:, None]
        for t_out in [1, 2, 5, 6, 13]:
            out = resample_frames(x, t_out)
            expected = 2.5 * np.linspace(0.0, 1.0, t_out) - 1.0
            if t_out == 1:
                expected = np.array([-1.0])
            assert np.allclose(out[:, 0], expected, atol=1e-14)

    def test_zero_output_rejected(self):
        with pytest.raises(ValueError):
            resample_frames(np.zeros((3, 1)), 0)

    def test_bitwise_equal_to_per_column_interp(self):
        rng = np.random.default_rng(3)
        for _ in range(3000):
            t_in = int(rng.integers(1, 60))
            t_out = int(rng.integers(1, 200))
            dim = int(rng.integers(1, 9))
            x = rng.normal(size=(t_in, dim)) * 10.0 ** rng.uniform(-3, 3)
            grid_in = np.linspace(0.0, 1.0, t_in)
            grid_out = np.linspace(0.0, 1.0, t_out)
            oracle = np.stack([np.interp(grid_out, grid_in, x[:, d]) for d in range(dim)], axis=1)
            out = resample_frames(x, t_out)
            assert out.shape == oracle.shape and out.dtype == oracle.dtype
            assert np.array_equal(out.view(np.uint64), oracle.view(np.uint64)), (t_in, t_out, dim)


class TestSavgol:
    def test_quadratic_reproduced_everywhere(self):
        t = np.arange(20, dtype=np.float64)
        x = seq((t**2)[:, None])
        out = savgol_smooth(x, window=7, order=2)
        assert np.allclose(out.frames, x.frames, atol=1e-8)

    def test_constant_unchanged(self):
        x = seq(np.full((12, 3), 4.2))
        out = savgol_smooth(x)
        assert np.allclose(out.frames, x.frames, atol=1e-10)

    def test_interior_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(15, 1)) + np.linspace(0, 3, 15)[:, None]
        out = savgol_smooth(seq(x), window=7, order=2)
        # oracle: per-window polynomial regression solved by normal equations
        for i in range(3, 12):
            window = x[i - 3 : i + 4, 0]
            offs = np.arange(-3.0, 4.0)
            a = np.vander(offs, 3, increasing=True)
            coef = np.linalg.solve(a.T @ a, a.T @ window)
            assert out.frames[i, 0] == pytest.approx(coef[0], abs=1e-10)

    def test_edges_match_truncated_window_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(10, 1))
        out = savgol_smooth(seq(x), window=7, order=2)
        # frame 1: window is frames [0, 4], offsets -1..3, evaluated at 0
        window = x[0:5, 0]
        offs = np.arange(-1.0, 4.0)
        a = np.vander(offs, 3, increasing=True)
        coef = np.linalg.solve(a.T @ a, a.T @ window)
        assert out.frames[1, 0] == pytest.approx(coef[0], abs=1e-10)

    def test_window_larger_than_t_returns_input(self):
        x = seq(np.arange(4.0)[:, None])
        out = savgol_smooth(x, window=7, order=2)
        assert np.array_equal(out.frames, x.frames)

    def test_even_window_rejected(self):
        with pytest.raises(ValueError):
            savgol_smooth(seq(np.zeros((10, 1))), window=6)


class TestTemporalDiff:
    def test_constant_is_zero(self):
        x = np.full((8, 2), 3.0)
        assert np.all(temporal_diff(x, 1) == 0)
        assert np.all(temporal_diff(x, 2) == 0)

    def test_ramp(self):
        x = (0.7 * np.arange(9.0))[:, None]
        d1 = temporal_diff(x, 1)
        d2 = temporal_diff(x, 2)
        assert np.allclose(d1, 0.7)
        assert np.allclose(d2, 0.0, atol=1e-12)

    def test_padding_hand_computed(self):
        x = np.array([[0.0], [1.0], [3.0], [6.0]])
        d1 = temporal_diff(x, 1)
        # raw diffs [1, 2, 3]; last padded
        assert np.allclose(d1[:, 0], [1.0, 2.0, 3.0, 3.0])
        d2 = temporal_diff(x, 2)
        # raw second diffs [1, 1]; two padded
        assert np.allclose(d2[:, 0], [1.0, 1.0, 1.0, 1.0])

    def test_too_short_yields_zeros(self):
        x = np.array([[1.0], [2.0]])
        assert np.all(temporal_diff(x, 2) == 0)
        assert np.all(temporal_diff(np.array([[5.0]]), 1) == 0)


class TestMotionFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        x = MotionSequence(rng.normal(size=(6, 206)).astype(np.float32).astype(np.float64), fps=25)
        path = tmp_path / "clip.svmx"
        write_motion(path, x)
        back = read_motion(path)
        assert back.fps == 25
        assert np.array_equal(back.frames, x.frames)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="bad magic") as exc:
            read_motion(path)
        assert str(path) in str(exc.value)

    def test_every_truncation_is_rejected_with_the_path(self, tmp_path):
        path = tmp_path / "clip.svmx"
        write_motion(path, seq(np.arange(12.0).reshape(3, 4)))
        raw = path.read_bytes()
        cut = tmp_path / "cut.svmx"
        for length in range(len(raw)):
            cut.write_bytes(raw[:length])
            with pytest.raises(ValueError, match="truncated motion file") as exc:
                read_motion(cut)
            assert str(cut) in str(exc.value), length

    @pytest.mark.parametrize("header, data, message", [
        ((1, 0, 4, 25), b"", "empty motion file"),
        ((1, 3, 0, 25), b"", "empty motion file"),
        ((1, 3, 4, 0), np.zeros(12, "<f4").tobytes(), "empty motion file"),
        ((1, 3, 4, 25), np.full(12, np.nan, "<f4").tobytes(), "non-finite frame values"),
        ((1, 3, 4, 25), np.zeros(13, "<f4").tobytes(), "runs on past its data"),
        ((1, 2**32 - 1, 2**32 - 1, 25), b"", "truncated motion file"),
    ], ids=["no-frames", "no-features", "zero-fps", "nan", "trailing-bytes", "huge-header"])
    def test_malformed_file_is_rejected_with_the_path(self, tmp_path, header, data, message):
        path = tmp_path / "clip.svmx"
        path.write_bytes(b"SVMX" + struct.pack("<IIII", *header) + data)
        with pytest.raises(ValueError, match=message) as exc:
            read_motion(path)
        assert str(path) in str(exc.value)

    def test_other_version_is_rejected_with_the_path(self, tmp_path):
        path = tmp_path / "clip.svmx"
        write_motion(path, seq(np.zeros((2, 4))), version=2)
        with pytest.raises(ValueError, match="unsupported motion file version 2") as exc:
            read_motion(path)
        assert str(path) in str(exc.value)


class TestGlossClip:
    def test_span_validation(self):
        m = seq(np.zeros((5, 4)))
        GlossClip("HELLO", m, (1, 3))
        with pytest.raises(ValueError):
            GlossClip("HELLO", m, (3, 5))
