from __future__ import annotations

import math

import numpy as np
import pytest

from signweave import neuralkit as nk
from signweave.duration import (
    DurationModelConfig,
    DurationPrediction,
    DurationTrainConfig,
    GlossDurationPredictor,
    PairExample,
    SentenceDurationPredictor,
    SentenceExample,
    duration_loss,
    integer_plan,
    pair_feature_dim,
    pair_features,
    pinball_loss,
    sentence_token_features,
    target_allocation,
    target_scale,
    token_feature_dim,
    train_gloss_predictor,
    train_sentence_predictor,
)
from signweave.neuralkit.gradcheck import check_directional

from duration_oracles import loop_train_gloss_predictor, loop_train_sentence_predictor


class TestTargets:
    def test_scale_identity(self):
        assert target_scale(50, 50) == 0.0

    def test_scale_halving(self):
        assert target_scale(100, 50) == pytest.approx(-math.log(2), abs=1e-12)

    def test_scale_e_factor(self):
        t = 37
        assert target_scale(round(math.e * t), t) == pytest.approx(-1.0, abs=0.01)

    def test_scale_zero_rejected(self):
        with pytest.raises(ValueError):
            target_scale(0, 10)

    def test_allocation_midpoint_split(self):
        w = target_allocation([(0, 9), (20, 29)])
        assert np.allclose(w, [0.5, 0.5])

    def test_allocation_no_gaps(self):
        w = target_allocation([(0, 9), (10, 39)])
        assert np.allclose(w, [0.25, 0.75])

    def test_single_gloss(self):
        assert np.allclose(target_allocation([(3, 17)]), [1.0])

    def test_outer_margins_assigned_to_neighbors(self):
        w = target_allocation([(5, 14), (25, 34)], sentence_range=(0, 39))
        # midpoint boundary at 20; gloss 1 owns [0, 20), gloss 2 owns [20, 40)
        assert np.allclose(w, [0.5, 0.5])


class TestPinball:
    def test_zero(self):
        assert pinball_loss(0.0, 0.55) == 0.0

    def test_positive_residual(self):
        assert pinball_loss(2.0, 0.55) == pytest.approx(1.1)

    def test_negative_residual(self):
        assert pinball_loss(-2.0, 0.55) == pytest.approx(0.9)

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            pinball_loss(1.0, 1.0)

    def test_minimizer_is_quantile(self):
        # empirical-risk minimizer over a scalar sample set is the tau-quantile
        rng = np.random.default_rng(21)
        for tau in (0.55, 0.60):
            samples = np.sort(rng.normal(size=101))
            risks = [pinball_loss(samples - c, tau).sum() for c in samples]
            c_star = int(np.argmin(risks))
            expected = math.ceil(tau * len(samples)) - 1
            assert abs(c_star - expected) <= 1


class TestDurationLoss:
    def test_perfect_prediction(self):
        w = np.array([0.3, 0.7])
        loss = duration_loss(0.2, w, 0.2, w, tau=0.55).item()
        entropy = -(w * np.log(w)).sum()
        assert loss == pytest.approx(entropy, abs=1e-9)

    def test_uniform_vs_onehot(self):
        loss = duration_loss(0.0, np.array([0.5, 0.5]), 0.0, np.array([1.0, 0.0]), tau=0.55).item()
        assert loss == pytest.approx(math.log(2), abs=1e-9)

    def test_randomized_vs_scalar_reimplementation(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            k = rng.integers(2, 6)
            w_hat = rng.dirichlet(np.ones(k))
            w_gt = rng.dirichlet(np.ones(k))
            s_hat = rng.normal()
            s_gt = rng.normal()
            tau = rng.uniform(0.1, 0.9)
            lam = rng.uniform(0.5, 2.0)
            got = duration_loss(s_hat, w_hat, s_gt, w_gt, tau, lam).item()
            u = s_gt - s_hat
            expected = (tau * u if u >= 0 else (tau - 1) * u) - lam * float(
                np.sum(w_gt * np.log(np.maximum(w_hat, 1e-12)))
            )
            assert got == pytest.approx(expected, rel=1e-9)

    def test_fp32_inputs_give_fp32_loss(self):
        rng = np.random.default_rng(30)
        w_hat = nk.tensor(rng.dirichlet(np.ones(3), size=4).astype(np.float32), requires_grad=True)
        s_hat = nk.tensor(rng.normal(size=(4, 1)).astype(np.float32), requires_grad=True)
        w_gt = rng.dirichlet(np.ones(3), size=4).astype(np.float32)
        s_gt = rng.normal(size=(4, 1)).astype(np.float32)
        valid = np.array([[True] * 3, [True, True, False], [True] * 3, [True, False, False]])
        for mask in (None, valid):
            loss = duration_loss(s_hat, w_hat, s_gt, w_gt, tau=0.55, valid=mask)
            assert loss.dtype == np.float32
            loss.backward()
            assert s_hat.grad.dtype == np.float32 and w_hat.grad.dtype == np.float32

    def test_batch_is_mean_of_single_examples(self):
        rng = np.random.default_rng(31)
        w_hat = rng.dirichlet(np.ones(4), size=3)
        w_gt = rng.dirichlet(np.ones(4), size=3)
        s_hat, s_gt = rng.normal(size=(3, 1)), rng.normal(size=(3, 1))
        # padded slots hold nonzero targets here, so only the mask drops them
        valid = np.array([[True] * 4, [True, True, True, False], [True, True, False, False]])
        got = duration_loss(s_hat, w_hat, s_gt, w_gt, tau=0.6, lambda_split=1.5, valid=valid).item()
        singles = [duration_loss(s_hat[i, 0], w_hat[i, :k], s_gt[i, 0], w_gt[i, :k], tau=0.6, lambda_split=1.5).item()
                   for i, k in enumerate(valid.sum(axis=1))]
        assert got == pytest.approx(np.mean(singles), rel=1e-12)

    def test_zero_pred_prob_is_clamped(self):
        loss = duration_loss(0.0, np.array([0.0, 1.0]), 0.0, np.array([1.0, 0.0]), tau=0.5).item()
        assert np.isfinite(loss)
        assert loss == pytest.approx(-math.log(1e-12), rel=1e-6)


class TestIntegerPlan:
    def test_even_split(self):
        plan = integer_plan(10, DurationPrediction(0.0, np.array([0.5, 0.5])))
        assert plan.lengths == [5, 5] and plan.total == 10

    def test_largest_remainder(self):
        plan = integer_plan(10, DurationPrediction(0.0, np.array([0.34, 0.33, 0.33])), min_len=1)
        assert plan.lengths == [4, 3, 3]

    def test_min_length_repair(self):
        plan = integer_plan(20, DurationPrediction(0.0, np.array([0.98, 0.02])), min_len=4)
        assert plan.lengths == [16, 4] and plan.total == 20

    def test_random_draws_exact_sum_and_min_len(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            k = int(rng.integers(1, 9))
            w = rng.dirichlet(np.ones(k) * rng.uniform(0.2, 3.0))
            s = float(rng.uniform(-3, 3))
            t_src = int(rng.integers(1, 400))
            plan = integer_plan(t_src, DurationPrediction(s, w), min_len=4)
            assert sum(plan.lengths) == plan.total
            assert all(l >= 4 for l in plan.lengths)


class TestPredictors:
    def test_fresh_gloss_predictor_is_identity(self):
        cfg = DurationModelConfig(motion_dim=10, hidden=16)
        model = GlossDurationPredictor(cfg, seed=0)
        rng = np.random.default_rng(24)
        feats = pair_features(rng.normal(size=(12, 10)), rng.normal(size=(9, 10)))
        pred = model.predict(feats)
        assert abs(pred.scale) < 1e-3
        assert np.allclose(pred.allocation, [0.5, 0.5], atol=1e-3)

    def test_fresh_sentence_predictor_is_identity(self):
        cfg = DurationModelConfig(motion_dim=6, hidden=16, sent_layers=2, sent_heads=2, sent_ffn=32)
        model = SentenceDurationPredictor(cfg, seed=0)
        rng = np.random.default_rng(25)
        segments = [rng.normal(size=(rng.integers(5, 15), 6)) for _ in range(4)]
        pred = model.predict(segments)
        assert abs(pred.scale) < 1e-3
        assert np.allclose(pred.allocation, 0.25, atol=1e-3)

    def test_scale_always_clamped(self):
        cfg = DurationModelConfig(motion_dim=4, hidden=8, mlp_layers=2)
        model = GlossDurationPredictor(cfg, seed=1)
        # blow up the head weights to force saturation
        model.params["scale_head.weight"].data += 100.0
        rng = np.random.default_rng(26)
        feats = pair_features(rng.normal(size=(8, 4)), rng.normal(size=(7, 4)))
        pred = model.predict(feats)
        assert -3.0 <= pred.scale <= 3.0

    def test_forty_glosses_get_a_prediction(self):
        """Rotary attention sets no limit on a sentence's gloss count: a
        40-gloss sentence gets a scale and one allocation share per gloss."""
        cfg = DurationModelConfig(motion_dim=4, hidden=8, sent_layers=1, sent_heads=2, sent_ffn=16)
        model = SentenceDurationPredictor(cfg, seed=0)
        rng = np.random.default_rng(28)
        for name in ("scale_head.weight", "alloc_head.weight"):
            model.params[name].data += rng.normal(size=model.params[name].shape).astype(np.float32)
        segments = [rng.normal(size=(int(rng.integers(5, 12)), 4)) for _ in range(40)]
        pred = model.predict(segments)
        assert abs(pred.scale) > 1e-3 and pred.allocation.shape == (40,)
        assert np.all(pred.allocation > 0) and np.ptp(pred.allocation) > 1e-4
        plan = integer_plan(sum(len(s) for s in segments), pred)
        assert len(plan.lengths) == 40 and sum(plan.lengths) == plan.total

    def test_overfit_single_pair(self):
        cfg = DurationModelConfig(motion_dim=6, hidden=32, mlp_layers=2)
        model = GlossDurationPredictor(cfg, seed=2)
        rng = np.random.default_rng(27)
        feats = pair_features(rng.normal(size=(15, 6)), rng.normal(size=(11, 6)))
        example = PairExample(feats, scale=-0.3, allocation=np.array([0.4, 0.6]))
        train_gloss_predictor([example] * 8, model, DurationTrainConfig(epochs=150, batch_size=8, lr=3e-3, seed=0))
        pred = model.predict(feats)
        assert abs(pred.scale - (-0.3)) < 0.02
        assert np.allclose(pred.allocation, [0.4, 0.6], atol=0.02)


class TestGradients:
    def test_duration_loss_gradient_fd(self):
        cfg = DurationModelConfig(motion_dim=5, hidden=8, mlp_layers=2, dtype=np.float64)
        model = GlossDurationPredictor(cfg, seed=3)
        rng = np.random.default_rng(28)
        # nudge heads off exact zero so the pinball residual is away from the kink
        model.params["scale_head.weight"].data += rng.normal(size=model.params["scale_head.weight"].shape) * 0.05
        model.params["alloc_head.weight"].data += rng.normal(size=model.params["alloc_head.weight"].shape) * 0.05
        feats = pair_features(rng.normal(size=(10, 5)), rng.normal(size=(8, 5)))
        w_gt = np.array([0.3, 0.7])

        def f():
            scale, alloc = model.forward(feats)
            return duration_loss(scale.reshape(()), alloc, 0.4, w_gt, tau=0.55)

        check_directional(f, model.params, rng, directions=3, tol=1e-4)

    def test_sentence_predictor_gradient_fd(self):
        cfg = DurationModelConfig(motion_dim=4, hidden=8, sent_layers=1, sent_heads=2, sent_ffn=16, dtype=np.float64)
        model = SentenceDurationPredictor(cfg, seed=4)
        rng = np.random.default_rng(29)
        for name in ("scale_head.weight", "alloc_head.weight"):
            model.params[name].data += rng.normal(size=model.params[name].shape) * 0.05
        segments = [rng.normal(size=(rng.integers(4, 9), 4)) for _ in range(3)]
        tokens = sentence_token_features(segments)[None]
        valid = np.ones((1, 3), dtype=bool)
        w_gt = np.array([[0.2, 0.5, 0.3]])

        def f():
            scale, alloc = model.forward(tokens, valid)
            return duration_loss(scale.reshape(()), alloc.reshape(3), 0.25, w_gt[0], tau=0.6)

        check_directional(f, model.params, rng, directions=3, tol=1e-4)


def _ragged_examples(motion_dim: int, n: int, seed: int) -> tuple[list[PairExample], list[SentenceExample]]:
    rng = np.random.default_rng(seed)
    pairs = [PairExample(rng.normal(size=pair_feature_dim(motion_dim)), float(rng.normal(scale=0.3)),
                         rng.dirichlet(np.ones(2))) for _ in range(n)]
    sentences = []
    for _ in range(n):
        k = int(rng.integers(1, 7))
        sentences.append(SentenceExample(rng.normal(size=(k, token_feature_dim(motion_dim))),
                                         float(rng.normal(scale=0.3)), rng.dirichlet(np.ones(k))))
    return pairs, sentences


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestTrainingMatchesOracleLoops:
    """The shared loop against the per-predictor loops it replaced: 40 examples,
    batch 16 (a short last batch), sentences of 1 to 6 glosses."""

    cfg = DurationTrainConfig(tau=0.6, epochs=4, batch_size=16, lr=3e-3, seed=5)

    def _assert_same(self, make_model, train, oracle, examples):
        model, reference = make_model(), make_model()
        history = train(examples, model, self.cfg)
        expected = oracle(examples, reference, self.cfg)
        assert history == expected
        assert model.params.names() == reference.params.names()
        for name in model.params.names():
            got, want = model.params[name].data, reference.params[name].data
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    def test_gloss_predictor(self, dtype):
        cfg = DurationModelConfig(motion_dim=5, hidden=16, mlp_layers=2, dtype=dtype)
        pairs, _ = _ragged_examples(5, 40, seed=32)
        self._assert_same(lambda: GlossDurationPredictor(cfg, seed=6), train_gloss_predictor,
                          loop_train_gloss_predictor, pairs)

    def test_sentence_predictor(self, dtype):
        cfg = DurationModelConfig(motion_dim=5, hidden=16, sent_layers=2, sent_heads=2, sent_ffn=32, dtype=dtype)
        _, sentences = _ragged_examples(5, 40, seed=33)
        self._assert_same(lambda: SentenceDurationPredictor(cfg, seed=7), train_sentence_predictor,
                          loop_train_sentence_predictor, sentences)


class TestPaddedBatch:
    def test_padded_batch_matches_per_sentence_forwards(self):
        cfg = DurationModelConfig(motion_dim=5, hidden=16, sent_layers=2, sent_heads=2, sent_ffn=32)
        model = SentenceDurationPredictor(cfg, seed=8)
        rng = np.random.default_rng(34)
        for name in ("scale_head.weight", "alloc_head.weight"):
            t = model.params[name]
            t.data = (t.data + rng.normal(size=t.shape) * 0.3).astype(np.float32)
        _, sentences = _ragged_examples(5, 12, seed=35)
        lengths = [ex.tokens.shape[0] for ex in sentences]
        tokens = np.zeros((len(sentences), max(lengths), token_feature_dim(5)))
        valid = np.zeros((len(sentences), max(lengths)), dtype=bool)
        for i, ex in enumerate(sentences):
            tokens[i, : lengths[i]] = ex.tokens
            valid[i, : lengths[i]] = True
        assert not valid.all()
        scale, alloc = model.forward(tokens, valid)
        assert scale.dtype == np.float32 and alloc.dtype == np.float32
        for i, k in enumerate(lengths):
            s_one, a_one = model.forward(tokens[i : i + 1, :k], valid[i : i + 1, :k])
            np.testing.assert_allclose(scale.data[i], s_one.data[0], rtol=1e-5, atol=1e-6)
            np.testing.assert_allclose(alloc.data[i, :k], a_one.data[0], rtol=1e-5, atol=1e-6)
            assert np.all(alloc.data[i, k:] == 0.0)

    def test_packed_attention_matches_padded_attention(self):
        """The packed node on the predictor's (B, H, K, dh) rotary attention:
        the sentences' valid rows laid end to end as segments, each head's
        columns side by side, give the padded, key-masked attention of
        `rope_apply`-rotated queries and keys on every valid row, forward and
        gradients, within float32 rounding."""
        rng = np.random.default_rng(38)
        lengths = [3, 8, 1, 5]
        heads, dh = 2, 4
        shape = (len(lengths), heads, max(lengths), dh)
        valid = np.arange(shape[2])[None, :] < np.array(lengths)[:, None]
        arrays = [rng.normal(size=shape).astype(np.float32) for _ in range(3)]
        weight = (rng.normal(size=shape) * valid[:, None, :, None]).astype(np.float32)
        padded = [nk.tensor(a, requires_grad=True) for a in arrays]
        positions = np.arange(shape[2])
        q, k = (nk.rope_apply(t, positions) for t in padded[:2])
        out = nk.scaled_dot_attention(q, k, padded[2], key_padding_mask=valid[:, None, None, :])
        (out * nk.Tensor(weight)).sum().backward()

        def pack(a):
            """(B, H, K, dh) -> (N, H * dh): each sentence's valid rows in turn."""
            rows = np.concatenate([a[i, :, :n] for i, n in enumerate(lengths)], axis=1)
            return rows.transpose(1, 0, 2).reshape(sum(lengths), heads * dh)

        packed = [nk.tensor(pack(a), requires_grad=True) for a in arrays]
        offsets = nk.segment_offsets(lengths)
        rope = nk.rope_table(nk.segment_positions(offsets), dh, np.float32, heads=heads)
        got = nk.segment_attention(*packed, offsets, offsets, rope, key_rope=rope)
        (got * nk.Tensor(pack(weight))).sum().backward()
        assert got.dtype == np.float32
        np.testing.assert_allclose(got.data, pack(out.data), rtol=1e-5, atol=1e-6)
        for leaf, padded_leaf in zip(packed, padded):
            np.testing.assert_allclose(leaf.grad, pack(padded_leaf.grad), rtol=1e-5, atol=1e-6)


class TestNonFiniteLoss:
    cfg = DurationTrainConfig(epochs=2, batch_size=8, seed=3)

    def _assert_stops_at_bad_example(self, train, model, examples, bad):
        before = {name: model.params[name].data.copy() for name in model.params.names()}
        with pytest.raises(ValueError, match="non-finite loss") as exc:
            train(examples, model, self.cfg)
        # the first batch holding the bad example, in the loop's shuffled order
        order = np.random.default_rng(self.cfg.seed).permutation(len(examples))
        step = int(np.flatnonzero(order == bad)[0]) // self.cfg.batch_size
        batch = order[step * self.cfg.batch_size : (step + 1) * self.cfg.batch_size].tolist()
        assert f"at step {step} (batch indices {batch})" in str(exc.value)
        # no optimizer step took the non-finite gradient
        for name in model.params.names():
            assert np.all(np.isfinite(model.params[name].data)), name
        if step == 0:
            assert all(np.array_equal(model.params[n].data, before[n]) for n in before)

    def test_gloss_predictor_nan_feature(self):
        pairs, _ = _ragged_examples(5, 20, seed=36)
        pairs[13].features[4] = np.nan
        model = GlossDurationPredictor(DurationModelConfig(motion_dim=5, hidden=8, mlp_layers=2), seed=0)
        self._assert_stops_at_bad_example(train_gloss_predictor, model, pairs, bad=13)

    def test_sentence_predictor_nan_feature(self):
        _, sentences = _ragged_examples(5, 20, seed=37)
        sentences[6].tokens[-1, 2] = np.nan
        cfg = DurationModelConfig(motion_dim=5, hidden=8, sent_layers=1, sent_heads=2, sent_ffn=16)
        self._assert_stops_at_bad_example(train_sentence_predictor, SentenceDurationPredictor(cfg, seed=0),
                                          sentences, bad=6)
