from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from inpaint_oracles import ComposedDenoiser, full_row_step_loss, loop_train_inpainter
from signweave import neuralkit as nk
from signweave.inpaint import (
    Denoiser,
    DenoiserConfig,
    DiffusionSchedule,
    InpaintTrainConfig,
    BoundaryMask,
    LossConfig,
    PairItem,
    batch_loss,
    boundary_mask,
    combined_loss,
    ddim_refine,
    linear_transition_baseline,
    make_boundary_mask,
    masked_recon_loss,
    min_snr_weight,
    q_sample,
    sample_radius,
    sample_step_loss,
    train_inpainter,
    velocity_loss,
)
from signweave.inpaint.train import packed_step_loss
from signweave.motion import PartLayout
from signweave.neuralkit.gradcheck import check_directional


class OracleDenoiser:
    """Always returns a fixed target; stands in for a perfectly trained model."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=np.float64)

    def predict_x0(self, x_t, t, cond, mask_values):
        return self.target.copy()


class TestSchedule:
    def test_alpha_bar_strictly_decreasing(self):
        s = DiffusionSchedule()
        assert s.alpha_bar[0] == 1.0
        assert np.all(np.diff(s.alpha_bar) < 0)
        assert np.all((s.betas > 0) & (s.betas < 1))

    def test_respaced_steps(self):
        s = DiffusionSchedule(num_steps=1000)
        steps = s.respaced_steps(50)
        assert len(steps) == 50
        assert steps[0] == 1000 and steps[-1] == 1
        assert all(a > b for a, b in zip(steps, steps[1:]))

    def test_q_sample_noise_free(self):
        s = DiffusionSchedule()
        x0 = np.ones((4, 3))
        out = q_sample(x0, 500, np.zeros_like(x0), s)
        assert np.allclose(out, np.sqrt(s.alpha_bar[500]) * x0)

    def test_q_sample_near_identity_at_t1(self):
        s = DiffusionSchedule()
        rng = np.random.default_rng(0)
        x0 = rng.normal(size=(5, 2))
        out = q_sample(x0, 1, rng.normal(size=(5, 2)), s)
        assert np.allclose(out, x0, atol=0.05)

    def test_q_sample_marginal_variance(self):
        s = DiffusionSchedule()
        rng = np.random.default_rng(1)
        t = 700
        draws = np.array([q_sample(np.zeros(4), t, rng.standard_normal(4), s) for _ in range(20000)])
        var = draws.var()
        assert var == pytest.approx(1.0 - s.alpha_bar[t], rel=0.05)


class TestMinSnr:
    def test_low_snr_weight_is_one(self):
        s = DiffusionSchedule()
        assert min_snr_weight(1000, s) == 1.0  # SNR at the final step is far below gamma

    def test_half_weight_at_double_gamma(self):
        s = DiffusionSchedule()
        t = 100
        gamma = s.snr(t) / 2.0
        assert min_snr_weight(t, s, gamma) == pytest.approx(0.5, abs=1e-12)

    def test_matches_formula_and_monotone(self):
        s = DiffusionSchedule()
        prev = None
        for t in range(1, 1001, 7):
            ab = np.cumprod(1.0 - s.betas)[t - 1]
            snr = ab / (1.0 - ab)
            assert min_snr_weight(t, s) == pytest.approx(min(snr, 5.0) / snr, rel=1e-12)
        # weight is nonincreasing in SNR beyond gamma: scan decreasing t (increasing SNR)
        weights = [min_snr_weight(t, s) for t in range(1000, 0, -1)]
        snrs = [s.snr(t) for t in range(1000, 0, -1)]
        for i in range(1, len(weights)):
            if snrs[i] > 5.0:
                assert weights[i] <= weights[i - 1] + 1e-12


class TestMask:
    def test_zero_radius(self):
        m = make_boundary_mask(5, 5, 0)
        assert np.array_equal(np.nonzero(m.values)[0], [5])

    def test_radius_two(self):
        m = make_boundary_mask(3, 3, 2)
        assert np.array_equal(np.nonzero(m.values)[0], [1, 2, 3, 4, 5])

    def test_saturated(self):
        m = make_boundary_mask(4, 3, 100)
        assert np.all(m.values == 1)

    def test_empty_pair_rejected(self):
        with pytest.raises(ValueError):
            make_boundary_mask(0, 0, 1)


class TestBoundaryMask:
    """`boundary_mask` lays pairs end to end: its values are the pairs' own
    masks concatenated, and its layout is the segment layout of its lengths."""

    @pytest.mark.parametrize("per_pair", [False, True], ids=["one-radius", "radius-per-pair"])
    def test_matches_one_pair_masks(self, per_pair):
        rng = np.random.default_rng(40 + per_pair)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            lengths = [int(v) for v in rng.integers(1, 40, size=n)]
            # a boundary may sit on the pair's last frame or just past it
            boundaries = [int(rng.integers(0, length + 1)) for length in lengths]
            radii = rng.integers(0, 15, size=n) if per_pair else int(rng.integers(0, 15))
            mask = boundary_mask(lengths, boundaries, radii)
            each = np.broadcast_to(radii, (n,))
            want = np.concatenate([(np.abs(np.arange(length) - b) <= r).astype(np.float64)
                                   for length, b, r in zip(lengths, boundaries, each)])
            assert mask.values.dtype == np.float64 and np.array_equal(mask.values, want)
            assert mask.lengths == tuple(lengths) and mask.boundaries == tuple(boundaries)
            assert np.array_equal(mask.rows, np.flatnonzero(want > 0.5))
            offsets = nk.segment_offsets(lengths)
            assert np.array_equal(mask.offsets, offsets)
            assert np.array_equal(mask.positions, nk.segment_positions(offsets))
            one = [make_boundary_mask(b, length - b, int(r)).values for length, b, r in zip(lengths, boundaries, each)]
            assert np.array_equal(mask.values, np.concatenate(one))

    def test_rejects_bad_layouts(self):
        with pytest.raises(ValueError, match="empty pair"):
            boundary_mask((5, 0), (2, 0), 1)
        with pytest.raises(ValueError, match="radius must be >= 0"):
            boundary_mask((5, 6), (2, 3), (1, -1))
        with pytest.raises(ValueError, match="2 boundaries for 3 pairs"):
            boundary_mask((5, 6, 7), (2, 3), 1)
        with pytest.raises(ValueError):
            boundary_mask((5, 6), (2, 3), (1, 2, 3))


class TestReconLoss:
    def test_perfect_prediction_zero(self):
        rng = np.random.default_rng(2)
        x0 = rng.normal(size=(6, 4))
        w = np.ones(4)
        m = make_boundary_mask(3, 3, 1).values
        assert masked_recon_loss(x0, x0, m, w).item() == 0.0

    def test_single_masked_frame_hand_computed(self):
        # one supervised frame, one dim, error 0.5 with beta=1: huber = 0.125
        x0 = np.zeros((3, 1))
        x_hat = np.zeros((3, 1))
        x_hat[1, 0] = 0.5
        m = np.array([0.0, 1.0, 0.0])
        loss = masked_recon_loss(x_hat, x0, m, np.array([1.0])).item()
        assert loss == pytest.approx(0.125, rel=1e-9)

    def test_unmasked_errors_ignored(self):
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=(7, 3))
        m = make_boundary_mask(4, 3, 1).values
        w = np.ones(3)
        x_hat = x0.copy()
        base = masked_recon_loss(x_hat, x0, m, w).item()
        x_hat[m < 0.5] += rng.normal(size=x_hat[m < 0.5].shape) * 10
        assert masked_recon_loss(x_hat, x0, m, w).item() == pytest.approx(base)

    def test_all_zero_mask_guarded(self):
        x0 = np.ones((4, 2))
        loss = masked_recon_loss(x0 + 1.0, x0, np.zeros(4), np.ones(2)).item()
        assert loss == 0.0

    def test_part_weight_gating_ratio(self):
        layout = PartLayout.base()
        cfg = LossConfig()
        w = cfg.part_weights(layout)
        x0 = np.zeros((5, 206))
        m = np.ones(5)
        body_err = x0.copy()
        body_err[2, 0] = 1.0  # a body dim
        hand_err = x0.copy()
        hand_err[2, 120] = 1.0  # a hand dim
        l_body = masked_recon_loss(body_err, x0, m, w).item()
        l_hand = masked_recon_loss(hand_err, x0, m, w).item()
        assert l_hand / l_body == pytest.approx(cfg.omega_hand / cfg.omega_body, rel=1e-9)


class TestVelocityLoss:
    def test_constant_sequences(self):
        x0 = np.full((5, 2), 1.3)
        m = np.ones(5)
        assert velocity_loss(x0, x0, m, np.ones(2)).item() == 0.0

    def test_nonadjacent_mask_vanishes(self):
        rng = np.random.default_rng(4)
        x0 = rng.normal(size=(3, 2))
        x_hat = rng.normal(size=(3, 2))
        m = np.array([1.0, 0.0, 1.0])
        assert velocity_loss(x_hat, x0, m, np.ones(2)).item() == 0.0

    def test_three_frame_hand_computed(self):
        x0 = np.array([[0.0], [1.0], [1.5]])
        x_hat = np.array([[0.0], [1.2], [1.5]])
        m = np.ones(3)
        # diffs: ref [1.0, 0.5], hat [1.2, 0.3]; errors 0.2 and -0.2 -> huber 0.02 each
        loss = velocity_loss(x_hat, x0, m, np.array([1.0])).item()
        assert loss == pytest.approx(0.02, rel=1e-9)


class TestCombinedLoss:
    def test_oracle_denoiser_zero(self):
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(8, 4))
        m = make_boundary_mask(4, 4, 2).values
        loss = combined_loss(x0, x0, m, np.ones(4), weight_t=0.7)
        assert loss.item() == 0.0

    def test_weight_scales_linearly(self):
        rng = np.random.default_rng(6)
        x0 = rng.normal(size=(8, 4))
        x_hat = x0 + rng.normal(size=x0.shape) * 0.3
        m = make_boundary_mask(4, 4, 2).values
        w = np.ones(4)
        l1 = combined_loss(x_hat, x0, m, w, weight_t=1.0).item()
        l2 = combined_loss(x_hat, x0, m, w, weight_t=2.0).item()
        assert l2 == pytest.approx(2.0 * l1, rel=1e-12)

    def test_constant_offset_hand_computed(self):
        rng = np.random.default_rng(12)
        x0 = rng.normal(size=(8, 4))
        x_hat = x0 + 0.5
        m = make_boundary_mask(4, 4, 2).values
        # constant error 0.5: huber term 0.125 per entry, no velocity error
        loss = combined_loss(x_hat, x0, m, np.ones(4), weight_t=1.0).item()
        assert loss == pytest.approx(0.125, rel=1e-9)

    def test_training_loss_decreases(self):
        rng = np.random.default_rng(7)
        d = 6
        layout_weights = np.ones(d)
        cfg = DenoiserConfig(latent=16, layers=1, heads=2, ffn=32, hand_head_depth=1)
        # tiny toy: use full 206-dim layout but small latent; single synthetic pair
        x_tilde = rng.normal(size=(24, 206)) * 0.3
        x0 = x_tilde + rng.normal(size=x_tilde.shape) * 0.05
        item = PairItem(x_tilde, x0, boundary_index=12)
        denoiser = Denoiser(cfg, seed=0)
        schedule = DiffusionSchedule()
        history = train_inpainter(
            [item], denoiser, schedule,
            InpaintTrainConfig(steps=200, batch_size=2, lr=1e-3, radius_min=3, radius_max=6, seed=0),
        )
        first = float(np.mean(history[:20]))
        last = float(np.mean(history[-20:]))
        assert last < first

    def test_non_finite_loss_stops_training(self):
        rng = np.random.default_rng(8)
        cfg = DenoiserConfig(latent=8, layers=1, heads=2, ffn=16, hand_head_depth=1)
        items = []
        for _ in range(3):
            x_tilde = rng.normal(size=(20, 206)) * 0.3
            items.append(PairItem(x_tilde, x_tilde + rng.normal(size=x_tilde.shape) * 0.05, boundary_index=10))
        items[1].x0[10, 5] = np.nan
        denoiser = Denoiser(cfg, seed=0)
        with pytest.raises(ValueError, match=r"non-finite loss nan at step \d+ \(batch indices \[") as exc:
            train_inpainter(items, denoiser, DiffusionSchedule(),
                            InpaintTrainConfig(steps=50, batch_size=2, radius_min=3, radius_max=6, seed=0))
        batch = exc.value.args[0].split("batch indices ")[1].strip("()")
        assert 1 in json.loads(batch)
        for name in denoiser.params.names():
            assert np.all(np.isfinite(denoiser.params[name].data)), name
            assert np.all(np.isfinite(denoiser.params.ema_value(name))), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_training_matches_oracle_loop(dtype):
    """`train_inpainter` on `nk.fit` against the step loop it replaced: five
    pairs of three lengths at batch 3, so each draw repeats pairs, and an EMA
    decay other than the one the denoiser was built with."""
    rng = np.random.default_rng(14)
    items = []
    for length in (16, 20, 24, 20, 16):
        x_tilde = rng.normal(size=(length, 206)) * 0.3
        items.append(PairItem(x_tilde, x_tilde + rng.normal(size=x_tilde.shape) * 0.05, length // 2))
    cfg = DenoiserConfig(latent=8, layers=1, heads=2, ffn=16, hand_head_depth=1, dtype=dtype)
    model, reference = Denoiser(cfg, seed=2), Denoiser(cfg, seed=2)
    train_cfg = InpaintTrainConfig(steps=6, batch_size=3, lr=1e-2, ema_decay=0.9, radius_min=3, radius_max=6, seed=4)
    history = train_inpainter(items, model, DiffusionSchedule(), train_cfg)
    assert history == loop_train_inpainter(items, reference, DiffusionSchedule(), train_cfg)
    assert len(history) == 6 and model.params.names() == reference.params.names()
    for name in model.params.names():
        got, want = model.params[name].data, reference.params[name].data
        assert got.dtype == want.dtype == dtype and np.array_equal(got, want), name
        assert np.array_equal(model.params.ema_value(name), reference.params.ema_value(name)), name
        assert model.params[name].grad is None, name


class TestDdim:
    def setup_method(self):
        rng = np.random.default_rng(8)
        self.x_tilde = rng.normal(size=(20, 5))
        self.target = rng.normal(size=(20, 5))
        self.schedule = DiffusionSchedule()

    def test_context_frames_bitwise_preserved(self):
        mask = make_boundary_mask(10, 10, 3)
        out = ddim_refine(self.x_tilde, mask, OracleDenoiser(self.target), self.schedule, steps=10,
                          rng=np.random.default_rng(0))
        keep = mask.values < 0.5
        assert np.array_equal(out[keep], self.x_tilde[keep])

    def test_oracle_composition_for_any_step_count(self):
        mask = make_boundary_mask(10, 10, 4)
        m = mask.values[:, None]
        expected = np.where(m > 0.5, self.target, self.x_tilde)
        for steps in (1, 10, 50):
            out = ddim_refine(self.x_tilde, mask, OracleDenoiser(self.target), self.schedule, steps=steps,
                              rng=np.random.default_rng(1))
            assert np.array_equal(out, expected)

    def test_deterministic_given_seed(self):
        cfg = DenoiserConfig(latent=16, layers=1, heads=2, ffn=32, hand_head_depth=1)
        denoiser = Denoiser(cfg, seed=3)
        rng = np.random.default_rng(9)
        x_tilde = rng.normal(size=(14, 206))
        mask = make_boundary_mask(7, 7, 3)
        a = ddim_refine(x_tilde, mask, denoiser, self.schedule, steps=5, rng=np.random.default_rng(42))
        b = ddim_refine(x_tilde, mask, denoiser, self.schedule, steps=5, rng=np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_packed_pairs_match_per_pair_runs(self):
        """One DDIM run over pairs laid end to end gives each pair's own run,
        up to float32 rounding: every update is row-wise, and the denoiser
        keeps attention inside each pair."""
        denoiser = perturbed_denoiser(6)
        rng = np.random.default_rng(13)
        shapes = ((9, 12), (15, 7), (6, 6))
        masks = [make_boundary_mask(a, b, 4) for a, b in shapes]
        pairs = [rng.normal(size=(len(m.values), 206)) * 0.5 for m in masks]
        noise = [rng.standard_normal(p.shape) for p in pairs]
        want = np.concatenate([ddim_refine(p, m, denoiser, self.schedule, steps=6, noise=n)
                               for p, m, n in zip(pairs, masks, noise)])
        packed = boundary_mask([a + b for a, b in shapes], [a for a, _ in shapes], 4)
        x_tilde, noise = np.concatenate(pairs), np.concatenate(noise)
        got = ddim_refine(x_tilde, packed, denoiser, self.schedule, steps=6, noise=noise)
        keep = packed.values < 0.5
        assert np.array_equal(got[keep], x_tilde[keep])
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6 * np.abs(want).max())
        # the same frames taken as one long pair attend across the boundaries
        one = ddim_refine(x_tilde, as_one_pair(packed), denoiser, self.schedule, steps=6, noise=noise)
        assert np.abs(one - want).max() > 1e-3

    def test_too_many_steps_rejected(self):
        mask = make_boundary_mask(10, 10, 3)
        with pytest.raises(ValueError):
            ddim_refine(self.x_tilde, mask, OracleDenoiser(self.target), self.schedule, steps=1001)


def as_one_pair(mask: BoundaryMask) -> BoundaryMask:
    """`mask`'s values over all its frames, taken as one long pair."""
    n = len(mask.values)
    return replace(mask, lengths=(n,), boundaries=mask.boundaries[:1], offsets=nk.segment_offsets([n]),
                   positions=np.arange(n))


SMALL = DenoiserConfig(latent=16, layers=2, heads=2, ffn=32, hand_head_depth=2)


def perturbed_denoiser(seed: int, dtype=np.float32) -> Denoiser:
    """A small denoiser whose zero-initialized heads are moved off the copy solution."""
    denoiser = Denoiser(replace(SMALL, dtype=dtype), seed=seed)
    rng = np.random.default_rng(seed)
    for name in denoiser.params.names():
        t = denoiser.params[name]
        t.data = (t.data + rng.normal(0.0, 0.1, size=t.shape)).astype(t.dtype)
    return denoiser


def fresh_copy(denoiser: Denoiser) -> Denoiser:
    """A new denoiser holding the same live parameter values."""
    copy = Denoiser(denoiser.cfg, seed=99)
    nk.restore_into(copy.params, {name: (denoiser.params[name].data.copy(),) * 2
                                  for name in denoiser.params.names()})
    return copy


def predict_once(denoiser: Denoiser, x_t, t, cond, mask) -> np.ndarray:
    """One DDIM step's prediction of the masked rows, from a sampler built
    for this call alone."""
    return denoiser.sampler(cond, mask)(x_t, t)


def test_denoiser_checkpoint_round_trip_keeps_values_and_ema(tmp_path):
    """Save, load and restore into a placeholder denoiser: every value and
    EMA shadow comes back with its bytes, and the EMA weights predict alike."""
    denoiser = perturbed_denoiser(5)
    denoiser.params.ema_update(decay=0.5)
    path = tmp_path / "denoiser.ckpt"
    nk.save_checkpoint(path, denoiser.params)
    restored = Denoiser(denoiser.cfg, seed=None)
    nk.restore_into(restored.params, nk.load_checkpoint(path))
    assert restored.params.keeps_ema
    for name in denoiser.params.names():
        assert restored.params[name].data.tobytes() == denoiser.params[name].data.tobytes()
        assert restored.params.ema_value(name).tobytes() == denoiser.params.ema_value(name).tobytes()
    rng = np.random.default_rng(13)
    x_t, cond = rng.normal(size=(18, 206)), rng.normal(size=(18, 206))
    mask = make_boundary_mask(9, 9, 3)
    for model in (denoiser, restored):
        model.params.swap_in_ema()
    assert np.array_equal(predict_once(restored, x_t, 40, cond, mask), predict_once(denoiser, x_t, 40, cond, mask))


class TestPredictX0:
    """Clean-motion predictions at inference. `Denoiser.sampler` conditions
    the denoiser once for a DDIM run and predicts the masked rows through
    `Denoiser.forward`; every sampler is built from the parameters and inputs
    it is given, so none serves another's conditioning."""

    def setup_method(self):
        rng = np.random.default_rng(11)
        self.x_t = rng.normal(size=(18, 206))
        self.cond = rng.normal(size=(18, 206))
        self.mask = make_boundary_mask(9, 9, 3)
        # the same frames as two pairs of 9, the boundary at the first one's end
        self.split = boundary_mask((9, 9), (9, 0), 3)

    def test_masked_rows_match_full_forward(self):
        denoiser = perturbed_denoiser(1)
        full = denoiser.forward(self.x_t, 40, denoiser.condition(self.cond, self.mask)).data
        out = denoiser.sampler(self.cond, self.mask)(self.x_t, 40)
        rows = self.mask.rows
        assert np.array_equal(rows, np.flatnonzero(self.mask.values > 0.5))
        assert np.allclose(out, full[rows], atol=1e-6, rtol=0.0)
        assert not np.allclose(out, self.cond[rows], atol=1e-3)

    def test_empty_mask_returns_cond(self):
        denoiser = perturbed_denoiser(1)
        empty = boundary_mask((18,), (40,), 3)  # a boundary beyond the pair's end
        predict = denoiser.sampler(self.cond, empty)
        assert not empty.values.any() and empty.rows.size == 0 and predict(self.x_t, 40).shape == (0, 206)
        out = ddim_refine(self.cond, empty, denoiser, DiffusionSchedule(), steps=3)
        assert np.array_equal(out, self.cond)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sampler_matches_per_step_condition_and_forward(self, dtype):
        """Each step of one sampler gives the bits of a conditioning built
        afresh for that step and one forward."""
        denoiser = perturbed_denoiser(3, dtype)
        predict = denoiser.sampler(self.cond, self.split)
        rng = np.random.default_rng(15)
        for t in (900, 500, 70, 1):
            x_t = rng.normal(size=self.x_t.shape)
            got = predict(x_t, t)
            with nk.no_grad():
                c = denoiser.condition(self.cond, self.split)
                want = denoiser.forward(x_t, t, c, rows=self.split.rows).data
            assert want.dtype == dtype and got.dtype == np.float64
            assert got.tobytes() == want.astype(np.float64).tobytes()

    def test_cache_is_rebuilt_after_parameter_changes(self, tmp_path):
        """A sampler built after an optimizer step, an EMA swap or restore, or
        `restore_into` predicts as a fresh copy of the denoiser does."""
        denoiser = perturbed_denoiser(2)
        schedule = DiffusionSchedule()

        def assert_fresh():
            got = predict_once(denoiser, self.x_t, 70, self.cond, self.mask)
            want = predict_once(fresh_copy(denoiser), self.x_t, 70, self.cond, self.mask)
            assert np.array_equal(got, want)

        assert_fresh()
        before = predict_once(denoiser, self.x_t, 70, self.cond, self.mask)
        # an optimizer step
        opt = nk.AdamW(denoiser.params, lr=1e-2)
        item = PairItem(self.cond, self.x_t, boundary_index=9)
        loss = batch_loss([item], denoiser, schedule, LossConfig(), np.random.default_rng(0))
        denoiser.params.zero_grad()
        loss.backward()
        opt.step()
        assert_fresh()
        assert not np.array_equal(before, predict_once(denoiser, self.x_t, 70, self.cond, self.mask))
        # EMA swap and restore
        denoiser.params.ema_update(decay=0.5)
        saved = denoiser.params.swap_in_ema()
        assert_fresh()
        denoiser.params.restore(saved)
        assert_fresh()
        # a checkpoint of another model restored into this one
        other = perturbed_denoiser(3)
        nk.save_checkpoint(tmp_path / "other.ckpt", other.params)
        nk.restore_into(denoiser.params, nk.load_checkpoint(tmp_path / "other.ckpt"))
        assert_fresh()

    def test_other_cond_or_mask_never_served_from_cache(self):
        """Samplers for other conditions and masks, alive at once and stepped
        in turn, each predict as a fresh copy's sampler does."""
        denoiser = perturbed_denoiser(4)
        other = np.random.default_rng(12).normal(size=self.cond.shape)
        narrow = make_boundary_mask(9, 9, 2)
        runs = [(cond, mask) for cond in (self.cond, other) for mask in (self.mask, narrow)]
        samplers = [denoiser.sampler(cond, mask) for cond, mask in runs]
        for t in (70, 20):
            for (cond, mask), predict in zip(runs, samplers):
                want = fresh_copy(denoiser).sampler(cond, mask)
                assert np.array_equal(predict(self.x_t, t), want(self.x_t, t))

    def test_rows_are_predict_x0_inside_the_mask(self):
        denoiser = perturbed_denoiser(5)
        pred = denoiser.sampler(self.cond, self.split)(self.x_t, 70)
        rows = self.split.rows
        assert np.array_equal(rows, np.flatnonzero(self.mask.values > 0.5)) and pred.dtype == np.float64
        assert pred.shape == (len(rows), 206)

    def test_ddim_on_rows_matches_ddim_on_full_predictions(self):
        """`ddim_refine` runs a `Denoiser` through its sampler; a wrapper that
        offers only `predict_x0`, a prediction of every frame, is read at the
        masked rows (here NaN outside them), and both return the same bits."""
        denoiser = perturbed_denoiser(6)
        masks = boundary_mask((21, 12), (9, 6), (4, 3))
        x_tilde = np.random.default_rng(14).normal(size=(len(masks.values), 206)) * 0.5

        class FullArrayOnly:
            def predict_x0(self, x_t, t, cond, mask):
                out = np.full(cond.shape, np.nan)
                out[mask.rows] = denoiser.sampler(cond, mask)(x_t, t)
                return out

        schedule = DiffusionSchedule()
        rows = ddim_refine(x_tilde, masks, denoiser, schedule, steps=6, rng=np.random.default_rng(2))
        full = ddim_refine(x_tilde, masks, FullArrayOnly(), schedule, steps=6, rng=np.random.default_rng(2))
        assert np.all(np.isfinite(rows)) and rows.tobytes() == full.tobytes()

    def test_other_pair_lengths_never_served_from_cache(self):
        denoiser = perturbed_denoiser(4)
        whole = predict_once(denoiser, self.x_t, 70, self.cond, as_one_pair(self.split))
        assert np.array_equal(whole, predict_once(denoiser, self.x_t, 70, self.cond, self.mask))
        got = predict_once(denoiser, self.x_t, 70, self.cond, self.split)
        assert np.array_equal(got, predict_once(fresh_copy(denoiser), self.x_t, 70, self.cond, self.split))
        assert not np.array_equal(got, whole)

    def test_inference_forward_equals_training_forward(self):
        denoiser = perturbed_denoiser(5)
        graph = denoiser.forward(self.x_t, 10, denoiser.condition(self.cond, self.mask))
        with nk.no_grad():
            c = denoiser.condition(self.cond, self.mask)
            first = denoiser.forward(self.x_t, 10, c)
            again = denoiser.forward(self.x_t, 10, c)
        assert graph.requires_grad and not first.requires_grad
        assert np.array_equal(first.data, graph.data)
        assert np.array_equal(again.data, graph.data)

    def test_lengths_must_cover_the_frames(self):
        denoiser = perturbed_denoiser(5)
        with pytest.raises(ValueError, match="do not add up"):
            denoiser.condition(self.cond, boundary_mask((9, 8), (9, 0), 3))
        c = denoiser.condition(self.cond, self.split)
        with pytest.raises(ValueError, match="do not add up"):
            denoiser.forward(self.x_t[:17], 10, c)
        with pytest.raises(ValueError, match="3 timesteps for 2 pairs"):
            denoiser.forward(self.x_t, [1, 2, 3], c)


class TestLinearBaseline:
    def test_four_transition_frames(self):
        a = np.zeros((5, 2))
        b = np.ones((4, 2))
        out, boundary = linear_transition_baseline(a, b, 4)
        assert out.shape[0] == 5 + 4 + 4
        assert np.allclose(out[5:9, 0], [0.2, 0.4, 0.6, 0.8])
        assert boundary == 7


class TestGradient:
    def test_objective_gradient_matches_fd(self):
        rng = np.random.default_rng(10)
        cfg = DenoiserConfig(latent=8, layers=1, heads=2, ffn=16,
                             hand_head_depth=2, dtype=np.float64)
        denoiser = Denoiser(cfg, seed=4)
        x_tilde = rng.normal(size=(9, 206)) * 0.5
        x0 = x_tilde + rng.normal(size=x_tilde.shape) * 0.1
        item = PairItem(x_tilde, x0, boundary_index=4)
        schedule = DiffusionSchedule()
        noise = rng.standard_normal(x0.shape)
        weights = LossConfig().part_weights(denoiser.layout)

        def f():
            return sample_step_loss(item, denoiser, schedule, LossConfig(), t=300, radius=2,
                                    noise=noise, part_weights=weights)

        check_directional(f, denoiser.params, rng, directions=3, tol=1e-4)


class TestRowsOnlyTraining:
    """The objective predicts only the rows inside the mask; the full-pair
    objective it replaced gives the same loss and parameter gradients, up to
    the float32 rounding of sums over a different number of rows."""

    @pytest.mark.parametrize("length, boundary, radius", [
        (40, 19, 6),   # interior mask
        (30, 4, 9),    # clipped at the start: radius > boundary_index
        (30, 24, 6),   # clipped at the end: radius >= T - boundary_index
        (120, 60, 30),  # a pair of training length at the largest radius
    ])
    def test_matches_full_row_objective(self, length, boundary, radius):
        rng = np.random.default_rng(length + boundary)
        denoiser = perturbed_denoiser(boundary)
        x_tilde = rng.normal(size=(length, 206)) * 0.5
        item = PairItem(x_tilde, x_tilde + rng.normal(size=x_tilde.shape) * 0.1, boundary)
        schedule = DiffusionSchedule()
        noise = rng.standard_normal(x_tilde.shape)
        weights = LossConfig().part_weights(denoiser.layout)
        results = []
        for objective in (full_row_step_loss, sample_step_loss):
            denoiser.params.zero_grad()
            loss = objective(item, denoiser, schedule, LossConfig(), 300, radius, noise, weights)
            loss.backward()
            results.append((loss.data, {n: denoiser.params[n].grad for n in denoiser.params.names()}))
        (want, want_grads), (got, got_grads) = results
        assert got.dtype == np.float32
        assert got == pytest.approx(want, rel=1e-6)
        for name, grad in got_grads.items():
            assert grad.dtype == np.float32, name
            np.testing.assert_allclose(grad, want_grads[name], rtol=1e-5, atol=1e-6 * np.abs(want_grads[name]).max(),
                                       err_msg=name)

    def test_packed_forward_matches_per_item_forwards(self):
        """Items laid end to end, each with its own t and rows, give each
        item's own forward within float32 rounding."""
        rng = np.random.default_rng(20)
        denoiser = perturbed_denoiser(8)
        lengths, ts = [40, 30, 57], [5, 300, 900]
        x_t = [rng.normal(size=(n, 206)) for n in lengths]
        cond = [rng.normal(size=(n, 206)) for n in lengths]
        masks = [make_boundary_mask(n // 2, n - n // 2, 6) for n in lengths]
        rows = [np.flatnonzero(m.values > 0.5) for m in masks]
        want = np.concatenate([denoiser.forward(x, t, denoiser.condition(c, m), rows=r).data
                               for x, t, c, m, r in zip(x_t, ts, cond, masks, rows)])
        starts = np.cumsum([0] + lengths[:-1])
        packed = denoiser.condition(np.concatenate(cond), boundary_mask(lengths, [n // 2 for n in lengths], 6))
        packed_rows = np.concatenate([r + s for r, s in zip(rows, starts)])
        got = denoiser.forward(np.concatenate(x_t), ts, packed, rows=packed_rows)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got.data, want, rtol=1e-5, atol=1e-6 * np.abs(want).max())

    def test_packed_batch_matches_per_item_objectives(self):
        """batch_loss packs its items into one forward and one loss. With the
        same draws it is the mean of the items' sample_step_loss: the loss and
        every parameter gradient agree within float32 rounding."""
        rng = np.random.default_rng(21)
        denoiser = perturbed_denoiser(7)
        items = []
        # interior, clipped at the start, clipped at the end, long, fully masked
        for length, boundary in ((40, 19), (30, 4), (30, 24), (57, 30), (12, 6)):
            x_tilde = rng.normal(size=(length, 206)) * 0.5
            items.append(PairItem(x_tilde, x_tilde + rng.normal(size=x_tilde.shape) * 0.1, boundary))
        schedule, cfg = DiffusionSchedule(), LossConfig()
        weights = cfg.part_weights(denoiser.layout)

        def per_item(draws):
            """batch_loss's draws in its order, one sample_step_loss per item."""
            terms = []
            for item in items:
                t = int(draws.integers(1, schedule.num_steps + 1))
                radius = sample_radius(draws, 3, 9)
                noise = draws.standard_normal(item.x0.shape)
                terms.append(sample_step_loss(item, denoiser, schedule, cfg, t, radius, noise, weights))
            return sum(terms[1:], terms[0]) * (1.0 / len(terms))

        def packed(draws):
            return batch_loss(items, denoiser, schedule, cfg, draws, (3, 9))

        results = []
        for objective in (per_item, packed):
            denoiser.params.zero_grad()
            loss = objective(np.random.default_rng(5))
            loss.backward()
            results.append((loss.data, {n: denoiser.params[n].grad for n in denoiser.params.names()}))
        (want, want_grads), (got, got_grads) = results
        assert got.dtype == np.float32
        assert got == pytest.approx(want, rel=1e-6)
        for name, grad in got_grads.items():
            assert grad.dtype == np.float32, name
            np.testing.assert_allclose(grad, want_grads[name], rtol=1e-5, atol=1e-6 * np.abs(want_grads[name]).max(),
                                       err_msg=name)


def test_x_tilde_in_the_denoiser_dtype_gives_the_same_step():
    """`build_inpaint_items` keeps x_tilde in the denoiser's dtype, which the
    conditioning casts it to anyway: one packed step gives the same loss and
    gradients, bit for bit, as with float64 x_tilde."""
    rng = np.random.default_rng(32)
    denoiser = perturbed_denoiser(11)
    items = []
    for length, boundary in ((40, 19), (30, 4)):
        x_tilde = rng.normal(size=(length, 206)) * 0.5
        items.append(PairItem(x_tilde, x_tilde + rng.normal(size=x_tilde.shape) * 0.1, boundary))
    draws = [(t, 6, rng.standard_normal(item.x0.shape)) for t, item in zip((5, 300), items)]
    schedule, cfg = DiffusionSchedule(), LossConfig()
    weights = cfg.part_weights(denoiser.layout)
    results = []
    for dtype in (np.float64, denoiser.cfg.dtype):
        batch = [PairItem(item.x_tilde.astype(dtype), item.x0, item.boundary_index) for item in items]
        denoiser.params.zero_grad()
        loss = packed_step_loss(batch, denoiser, schedule, cfg, draws, weights)
        loss.backward()
        results.append([loss.data.tobytes()] + [denoiser.params[n].grad.tobytes() for n in denoiser.params.names()])
    assert results[0] == results[1]


class TestAgainstComposedForward:
    """`Denoiser.forward` runs each attention sublayer as one node in row
    layout. The forward composed from the ops it replaced (split heads,
    `rope_apply`, head-major segment attention, merge heads) gives the
    sampler's predictions bit for bit, and through one `packed_step_loss` the
    same loss and parameter gradients within the rounding of the dtype."""

    RTOL = {np.float32: 1e-5, np.float64: 1e-10}

    # (frames before the boundary, frames after it, radius) per pair
    SHAPES = ((20, 17, 6), (9, 30, 12), (25, 25, 9))

    def pairs(self, rng):
        items = []
        for a, b, _ in self.SHAPES:
            x_tilde = rng.normal(size=(a + b, 206)) * 0.5
            items.append(PairItem(x_tilde, x_tilde + rng.normal(size=x_tilde.shape) * 0.1, a))
        mask = boundary_mask([a + b for a, b, _ in self.SHAPES], [a for a, _, _ in self.SHAPES],
                             [r for _, _, r in self.SHAPES])
        return mask, items

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_predict_rows_bit_for_bit(self, dtype):
        rng = np.random.default_rng(30)
        denoiser = perturbed_denoiser(9, dtype)
        masks = self.pairs(rng)[0]
        x_t, cond = (rng.normal(size=(len(masks.values), 206)) for _ in range(2))
        got = denoiser.sampler(cond, masks)(x_t, 70)
        rows = masks.rows
        composed = ComposedDenoiser(denoiser)
        with nk.no_grad():
            want = composed.forward(x_t, 70, composed.condition(cond, masks), rows=rows)
        assert want.dtype == dtype and len(rows) < len(masks.values)
        assert got.tobytes() == want.data.astype(np.float64).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_packed_step_gradients(self, dtype):
        rng = np.random.default_rng(31)
        denoiser = perturbed_denoiser(10, dtype)
        _, items = self.pairs(rng)
        draws = [(t, radius, rng.standard_normal(item.x0.shape))
                 for t, (_, _, radius), item in zip((5, 300, 900), self.SHAPES, items)]
        schedule, cfg = DiffusionSchedule(), LossConfig()
        weights = cfg.part_weights(denoiser.layout)
        results = []
        for model in (ComposedDenoiser(denoiser), denoiser):
            denoiser.params.zero_grad()
            loss = packed_step_loss(items, model, schedule, cfg, draws, weights)
            loss.backward()
            results.append((loss.data, {n: denoiser.params[n].grad for n in denoiser.params.names()}))
        (want, want_grads), (got, got_grads) = results
        assert got.dtype == dtype and got == want
        for name, grad in got_grads.items():
            assert grad.dtype == dtype, name
            np.testing.assert_allclose(grad, want_grads[name], rtol=self.RTOL[dtype],
                                       atol=self.RTOL[dtype] * np.abs(want_grads[name]).max(), err_msg=name)
