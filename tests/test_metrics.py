from __future__ import annotations

import math

import numpy as np
import pytest

from dtw_oracles import (
    blocked_subset_costs,
    loop_dtw,
    loop_dtw_error,
    loop_procrustes,
    loop_subsequence,
)
from signweave.metrics import (
    _DIAG,
    _LEFT,
    _UP,
    SyntheticSkeletonAdapter,
    _dtw_wavefront,
    _dtw_wavefront_rows,
    _subset_costs,
    dtw_align,
    dtw_alignments,
    fgd,
    frame_cost_matrix,
    length_ratio,
    procrustes,
    procrustes_batch,
    procrustes_path_error,
    ranking_metrics,
)


def enumerate_paths(t_a, t_b):
    """All monotone paths from (0,0) to (t_a-1, t_b-1) with steps (1,0),(0,1),(1,1)."""
    paths = []

    def walk(i, j, acc):
        if i == t_a - 1 and j == t_b - 1:
            paths.append(list(acc))
            return
        for di, dj in ((1, 1), (1, 0), (0, 1)):
            ni, nj = i + di, j + dj
            if ni < t_a and nj < t_b:
                acc.append((ni, nj))
                walk(ni, nj, acc)
                acc.pop()

    walk(0, 0, [(0, 0)])
    return paths


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class TestDtw:
    def test_identical_diagonal(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(6, 4, 3))
        path, cost = dtw_align(a, a)
        assert cost == pytest.approx(0.0, abs=1e-12)
        assert path == [(i, i) for i in range(6)]

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            t_a = int(rng.integers(1, 6))
            t_b = int(rng.integers(1, 6))
            a = rng.normal(size=(t_a, 3, 3))
            b = rng.normal(size=(t_b, 3, 3))
            cost = frame_cost_matrix(a, b)
            best = min(sum(cost[i, j] for i, j in p) for p in enumerate_paths(t_a, t_b))
            _, got = dtw_align(a, b)
            assert got == pytest.approx(best, abs=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 4, 3))
        b = rng.normal(size=(7, 4, 3))
        path1, cost1 = dtw_align(a, b)
        shift = np.array([1.0, -2.0, 0.5])
        path2, cost2 = dtw_align(a + shift, b + shift)
        assert path1 == path2
        assert cost1 == pytest.approx(cost2, abs=1e-10)

    def test_path_steps_valid(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 2, 3))
        b = rng.normal(size=(5, 2, 3))
        path, _ = dtw_align(a, b)
        assert path[0] == (0, 0) and path[-1] == (7, 4)
        for (i0, j0), (i1, j1) in zip(path, path[1:]):
            assert (i1 - i0, j1 - j0) in {(1, 0), (0, 1), (1, 1)}


def cost_per_step(a, b, subset=slice(None)):
    """The DTW error eval reports: accumulated cost over path length."""
    [(path, total)] = dtw_alignments(a, b, [subset])
    return total / len(path)


class TestDtwError:
    def test_identical_zero(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(6, 5, 3))
        assert cost_per_step(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_constant_offset(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 5, 3))
        delta = np.array([0.3, -0.4, 1.2])
        assert cost_per_step(a, a + delta) == pytest.approx(np.linalg.norm(delta), rel=1e-9)

    def test_randomized_vs_two_pass_oracle(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(5, 4, 3))
        b = rng.normal(size=(4, 4, 3))
        path, _ = dtw_align(a, b)
        expected = np.mean([np.linalg.norm(a[i] - b[j], axis=-1).mean() for i, j in path])
        assert cost_per_step(a, b) == pytest.approx(expected, rel=1e-12)

    def test_subset_restriction(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 6, 3))
        b = a.copy()
        b[:, 3:, :] += 10.0  # error only outside the subset
        assert cost_per_step(a, b, np.arange(3)) == pytest.approx(0.0, abs=1e-12)


class TestProcrustes:
    def test_exact_recovery(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = rng.normal(size=(10, 3))
            rot = random_rotation(rng)
            s = float(rng.uniform(0.5, 2.0))
            t = rng.normal(size=3)
            q = s * p @ rot.T + t
            r_hat, s_hat, t_hat, fb = procrustes(p, q)
            assert not fb
            aligned = s_hat * p @ r_hat.T + t_hat
            assert np.linalg.norm(aligned - q) < 1e-9
            assert s_hat == pytest.approx(s, rel=1e-9)

    def test_identity(self):
        rng = np.random.default_rng(9)
        p = rng.normal(size=(6, 3))
        rot, s, t, fb = procrustes(p, p)
        assert np.allclose(rot, np.eye(3), atol=1e-10)
        assert s == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(t, 0.0, atol=1e-10)

    def test_degenerate_fallback(self):
        p = np.zeros((5, 3))
        q = np.ones((5, 3))
        rot, s, t, fb = procrustes(p, q)
        assert fb
        assert np.allclose(rot, np.eye(3)) and s == 1.0
        assert np.allclose(t, 1.0)

    def test_optimal_vs_rotation_grid_on_planar_toy(self):
        rng = np.random.default_rng(10)
        p = np.concatenate([rng.normal(size=(8, 2)), np.zeros((8, 1))], axis=1)
        q = np.concatenate([rng.normal(size=(8, 2)), np.zeros((8, 1))], axis=1)
        rot, s, t, fb = procrustes(p, q)
        best_res = ((s * p @ rot.T + t - q) ** 2).sum()
        # coarse oracle: in-plane rotations with optimal scale/translation per angle
        for angle in np.linspace(0, 2 * np.pi, 720, endpoint=False):
            c, si = np.cos(angle), np.sin(angle)
            r = np.array([[c, -si, 0.0], [si, c, 0.0], [0.0, 0.0, 1.0]])
            pr = p @ r.T
            pc = pr - pr.mean(axis=0)
            qc = q - q.mean(axis=0)
            denom = (pc**2).sum()
            scale = (pc * qc).sum() / denom
            res = ((scale * pc - qc) ** 2).sum()
            assert best_res <= res + 1e-9

    def test_pa_error_not_above_plain_error(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = rng.normal(size=(4, 8, 3))
            b = rng.normal(size=(4, 8, 3))
            [(path, total)] = dtw_alignments(a, b, [slice(None)])
            assert procrustes_path_error(a, b, path) <= total / len(path) + 1e-9


def as_tuples(path):
    return [tuple(step) for step in np.asarray(path).tolist()]


class TestWavefrontKernel:
    """The anti-diagonal kernel against the cell-by-cell loops it replaced."""

    @pytest.mark.parametrize("subsequence, oracle", [(False, loop_dtw), (True, loop_subsequence)],
                             ids=["plain", "subsequence"])
    @pytest.mark.parametrize("quantized, n_sub", [(False, 1), (True, 1), (False, 4), (True, 4)],
                             ids=["random", "ties", "random-stack", "ties-stack"])
    def test_matches_loop_oracle(self, subsequence, oracle, quantized, n_sub):
        """Each matrix of a stack, advanced in lockstep with different others."""
        rng = np.random.default_rng(19 + quantized)
        for _ in range(200):
            t_a, t_b = (int(v) for v in rng.integers(1, 12, size=2))
            if quantized:  # {0, 1} costs: most cells tie with a neighbour
                costs = rng.integers(0, 2, size=(n_sub, t_a, t_b)).astype(np.float64)
            else:
                costs = rng.random((n_sub, t_a, t_b))
            found = _dtw_wavefront(costs, subsequence=subsequence)
            assert len(found) == n_sub
            for (path, total), cost in zip(found, costs):
                expected_path, expected_total = oracle(cost)
                assert as_tuples(path) == expected_path
                assert total == expected_total

    @pytest.mark.parametrize("subsequence, oracle", [(False, loop_dtw), (True, loop_subsequence)],
                             ids=["plain", "subsequence"])
    def test_long_and_transposed(self, subsequence, oracle):
        cost = np.random.default_rng(21).random((37, 90))
        for c in (cost, cost.T):
            [(path, total)] = _dtw_wavefront(c[None], subsequence=subsequence)
            expected_path, expected_total = oracle(np.ascontiguousarray(c))
            assert as_tuples(path) == expected_path
            assert total == expected_total

    @pytest.mark.parametrize("quantized", [False, True], ids=["random", "ties"])
    def test_shorter_sequence_on_the_row_axis(self, quantized):
        """Plain mode aligns a stack of tall matrices transposed, with up and
        left swapped in the tie order: each path and total is the one the
        kernel finds on the matrices as given, bit for bit, in both
        orientations."""
        rng = np.random.default_rng(23 + quantized)
        for _ in range(150):
            shape = (int(rng.integers(1, 5)), *(int(v) for v in rng.integers(1, 30, size=2)))
            # costs in {0, 1, 2}: most cells tie with a neighbour
            costs = rng.integers(0, 3, size=shape).astype(np.float64) if quantized else rng.random(shape)
            for c in (costs, costs.transpose(0, 2, 1)):
                found = _dtw_wavefront(c)
                want = _dtw_wavefront_rows(c, (_DIAG, _UP, _LEFT), False)
                for (path, total), (want_path, want_total) in zip(found, want, strict=True):
                    assert path.dtype == want_path.dtype and np.array_equal(path, want_path)
                    assert np.float64(total).tobytes() == np.float64(want_total).tobytes()

    def test_subset_alignments_match_separate_runs(self, monkeypatch):
        rng = np.random.default_rng(22)
        a = rng.normal(size=(23, 9, 3))
        subsets = [np.arange(3), np.array([2, 5, 7, 8]), np.arange(9), np.array([8, 2, 5]),
                   slice(1, 9, 3), np.array([4])]
        # small tiles, so the tiled cost pass crosses tile edges
        monkeypatch.setattr("signweave.metrics._BLOCK_ELEMENTS", 200)
        for t_b in (17, 1):
            b = rng.normal(size=(t_b, 9, 3))
            for subset, (path, total) in zip(subsets, dtw_alignments(a, b, subsets)):
                cost = np.linalg.norm(a[:, None, subset] - b[None, :, subset], axis=-1).mean(axis=-1)
                expected_path, expected_total = loop_dtw(cost)
                assert as_tuples(path) == expected_path
                assert total == pytest.approx(expected_total, abs=1e-12)

    @pytest.mark.parametrize("block_elements", [200, 1 << 15])
    def test_cost_pass_matches_blocked_pass_bitwise(self, monkeypatch, block_elements):
        """The tiled cost pass sums each subset's points in the order the
        blocked mean did, so the costs keep their bits."""
        monkeypatch.setattr("signweave.metrics._BLOCK_ELEMENTS", block_elements)
        rng = np.random.default_rng(25)
        n_points = 68
        subsets = [np.arange(21), np.arange(21, 51), np.arange(51), np.arange(51, 68),
                   np.array([3, 9, 40, 41, 42, 60, 0]), rng.permutation(n_points)[:30]]
        for t_a, t_b in ((1, 2), (2, 7), (13, 40), (40, 13), (118, 107)):
            a = rng.normal(size=(t_a, n_points, 3))
            b = rng.normal(size=(t_b, n_points, 3))
            got = _subset_costs(a, b, subsets)
            for cost, expected in zip(got, blocked_subset_costs(a, b, subsets)):
                assert cost.tobytes() == expected.tobytes()

    def test_dtw_error_matches_loop_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = rng.normal(size=(int(rng.integers(1, 15)), 7, 3))
            b = rng.normal(size=(int(rng.integers(1, 15)), 7, 3))
            subset = np.array([0, 2, 3, 6])
            [(path, total)] = dtw_alignments(a, b, [subset])
            assert total / len(path) == pytest.approx(loop_dtw_error(a, b, subset), abs=1e-12)
            assert procrustes_path_error(a[:, subset], b[:, subset], path) == pytest.approx(
                loop_dtw_error(a, b, subset, procrustes_align=True), abs=1e-12)


class TestProcrustesBatch:
    def point_pairs(self):
        rng = np.random.default_rng(24)
        p = rng.normal(size=(40, 6, 3))
        q = rng.normal(size=(40, 6, 3))
        p[3] = 1.5                                         # zero variance
        p[4] = np.outer(np.linspace(-1, 1, 6), [1.0, 2.0, -0.5]) + 0.3  # collinear
        q[5] = np.outer(np.linspace(-1, 1, 6), [0.0, 1.0, 1.0])         # collinear target
        q[6] = 0.0                                         # zero covariance
        p[7, :, 2] = 0.0                                   # planar: rank 2 is enough
        return p, q

    def test_matches_per_pair_oracle(self):
        p, q = self.point_pairs()
        rot, scale, trans, fallback = procrustes_batch(p, q)
        for n in range(p.shape[0]):
            r_o, s_o, t_o, fb_o = loop_procrustes(p[n], q[n])
            assert bool(fallback[n]) == fb_o
            assert np.abs(rot[n] - r_o).max() < 1e-12
            assert scale[n] == pytest.approx(s_o, abs=1e-12)
            assert np.abs(trans[n] - t_o).max() < 1e-12
        assert fallback[[3, 4, 5, 6]].all() and not fallback[[0, 7]].any()

    def test_path_error_matches_per_pair_oracle(self):
        p, q = self.point_pairs()
        path = np.stack([np.arange(40), np.arange(40)[::-1]], axis=1)
        errs = []
        for i, j in path:
            rot, s, t, _ = loop_procrustes(p[i], q[j])
            errs.append(float(np.linalg.norm(s * (p[i] @ rot.T) + t - q[j], axis=-1).mean()))
        assert procrustes_path_error(p, q, path) == pytest.approx(float(np.mean(errs)), abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            procrustes_batch(np.zeros((2, 4, 3)), np.zeros((2, 5, 3)))


class TestLengthRatio:
    def test_equal(self):
        assert length_ratio([10, 20], [10, 20]) == 1.0

    def test_double(self):
        assert length_ratio([20, 40], [10, 20]) == 2.0

    def test_mean_of_ratios(self):
        assert length_ratio([20, 5], [10, 10]) == pytest.approx(1.25)

    def test_zero_gt_rejected(self):
        with pytest.raises(ValueError):
            length_ratio([1.0], [0.0])


class TestFgd:
    def test_identical_sets(self):
        rng = np.random.default_rng(12)
        feats = rng.normal(size=(200, 8))
        assert fgd(feats, feats) < 1e-6

    def test_1d_two_gaussian_closed_form(self):
        rng = np.random.default_rng(13)
        z = rng.normal(size=(4000, 1))
        z = (z - z.mean()) / z.std(ddof=1)  # exact sample moments
        mu1, s1 = 0.0, 1.0
        mu2, s2 = 2.0, 1.5
        a = mu1 + s1 * z
        b = mu2 + s2 * z
        expected = (mu1 - mu2) ** 2 + (s1 - s2) ** 2
        assert fgd(a, b) == pytest.approx(expected, abs=1e-6)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(60, 5))
        b = rng.normal(size=(50, 5))
        perm = rng.permutation(60)
        assert fgd(a[perm], b) == pytest.approx(fgd(a, b), abs=1e-10)

    def test_memory_layout_does_not_move_the_bits(self):
        rng = np.random.default_rng(26)
        a = rng.normal(size=(90, 7))
        b = rng.normal(size=(60, 7)) + 0.2
        expected = fgd(a, b)
        assert fgd(np.asfortranarray(a), np.asfortranarray(b)) == expected

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(15)
        a = rng.normal(size=(80, 6))
        b = rng.normal(size=(70, 6)) + 0.3
        assert fgd(a, b) == pytest.approx(fgd(b, a), abs=1e-8)
        assert fgd(a, b) >= 0.0


class TestRankingMetrics:
    def test_rank_one(self):
        m = ranking_metrics([["x", "y", "z"]], ["x"])
        assert m["mrr"] == 1.0 and m["r@1"] == 1.0 and m["r@5"] == 1.0

    def test_rank_three(self):
        m = ranking_metrics([["a", "b", "x", "c", "d"]], ["x"])
        assert m["mrr"] == pytest.approx(1 / 3)
        assert m["r@1"] == 0.0 and m["r@5"] == 1.0

    def test_absent_reference(self):
        m = ranking_metrics([["a", "b"]], [None])
        assert m["mrr"] == 0.0 and m["r@10"] == 0.0

    def test_aggregation(self):
        lists = [["x", "a"], ["a", "x"], ["a", "b"]]
        refs = ["x", "x", "x"]
        m = ranking_metrics(lists, refs, ks=(1, 2))
        assert m["mrr"] == pytest.approx((1.0 + 0.5 + 0.0) / 3)
        assert m["r@1"] == pytest.approx(1 / 3)
        assert m["r@2"] == pytest.approx(2 / 3)


class TestSkeletonAdapter:
    def test_shapes_and_subsets(self):
        adapter = SyntheticSkeletonAdapter()
        frames = np.random.default_rng(17).normal(size=(5, 206))
        pts = adapter.to_points(frames)
        assert pts.shape == (5, adapter.num_points, 3)
        all_idx = np.sort(np.concatenate([adapter.body_joints, adapter.hand_joints, adapter.face_vertices]))
        assert np.array_equal(all_idx, np.arange(adapter.num_points))

    def test_feature_error_moves_points(self):
        adapter = SyntheticSkeletonAdapter()
        rng = np.random.default_rng(18)
        frames = rng.normal(size=(4, 206))
        perturbed = frames.copy()
        perturbed[:, 70] += 1.0  # an expression dim
        a = adapter.to_points(frames)
        b = adapter.to_points(perturbed)
        assert np.abs(a[:, adapter.face_vertices] - b[:, adapter.face_vertices]).max() > 0
        assert np.allclose(a[:, adapter.body_joints], b[:, adapter.body_joints])
