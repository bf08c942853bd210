from __future__ import annotations

import numpy as np
import pytest

from signweave import neuralkit as nk
from signweave.inpaint import (
    Denoiser,
    DenoiserConfig,
    DiffusionSchedule,
    InpaintTrainConfig,
    LossConfig,
    PairItem,
    batch_loss,
    combined_loss,
    ddim_refine,
    linear_transition_baseline,
    make_boundary_mask,
    masked_recon_loss,
    min_snr_weight,
    q_sample,
    sample_step_loss,
    train_inpainter,
    velocity_loss,
)
from signweave.motion import PartLayout
from signweave.neuralkit import Tensor
from signweave.neuralkit.gradcheck import check_directional


class OracleDenoiser:
    """Always returns a fixed target; stands in for a perfectly trained model."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=np.float64)

    def predict_x0(self, x_t, t, cond, mask_values):
        return self.target.copy()

    def forward(self, x_t, t, cond, mask_values, rng=None, training=False):
        return Tensor(self.target)


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

    def test_optional_l2_term_off_by_default(self):
        rng = np.random.default_rng(12)
        x0 = rng.normal(size=(8, 4))
        x_hat = x0 + 0.5
        m = make_boundary_mask(4, 4, 2).values
        w = np.ones(4)
        base = combined_loss(x_hat, x0, m, w, weight_t=1.0).item()
        with_l2 = combined_loss(x_hat, x0, m, w, weight_t=1.0, cfg=LossConfig(lambda_l2=1.0)).item()
        # constant error 0.5: huber term 0.125 per entry, l2 term adds 0.25
        assert base == pytest.approx(0.125, rel=1e-9)
        assert with_l2 == pytest.approx(0.125 + 0.25, rel=1e-9)

    def test_training_loss_decreases(self):
        rng = np.random.default_rng(7)
        d = 6
        layout_weights = np.ones(d)
        cfg = DenoiserConfig(motion_dim=206, latent=16, layers=1, heads=2, ffn=32, hand_head_depth=1)
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
        cfg = DenoiserConfig(motion_dim=206, latent=16, layers=1, heads=2, ffn=32, hand_head_depth=1)
        denoiser = Denoiser(cfg, seed=3)
        rng = np.random.default_rng(9)
        x_tilde = rng.normal(size=(14, 206))
        mask = make_boundary_mask(7, 7, 3)
        a = ddim_refine(x_tilde, mask, denoiser, self.schedule, steps=5, rng=np.random.default_rng(42))
        b = ddim_refine(x_tilde, mask, denoiser, self.schedule, steps=5, rng=np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_too_many_steps_rejected(self):
        mask = make_boundary_mask(10, 10, 3)
        with pytest.raises(ValueError):
            ddim_refine(self.x_tilde, mask, OracleDenoiser(self.target), self.schedule, steps=1001)


SMALL = DenoiserConfig(motion_dim=206, latent=16, layers=2, heads=2, ffn=32, hand_head_depth=2)


def perturbed_denoiser(seed: int) -> Denoiser:
    """A small denoiser whose zero-initialized heads are moved off the copy solution."""
    denoiser = Denoiser(SMALL, seed=seed)
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


class TestPredictX0:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.x_t = rng.normal(size=(18, 206))
        self.cond = rng.normal(size=(18, 206))
        self.mask = make_boundary_mask(9, 9, 3).values

    def test_masked_rows_match_full_forward(self):
        denoiser = perturbed_denoiser(1)
        full = denoiser.forward(self.x_t, 40, self.cond, self.mask).data.astype(np.float64)
        out = denoiser.predict_x0(self.x_t, 40, self.cond, self.mask)
        inside = self.mask > 0.5
        assert np.allclose(out[inside], full[inside], atol=1e-6, rtol=0.0)
        assert np.array_equal(out[~inside], self.cond[~inside])
        assert not np.allclose(out[inside], self.cond[inside], atol=1e-3)

    def test_empty_mask_returns_cond(self):
        denoiser = perturbed_denoiser(1)
        out = denoiser.predict_x0(self.x_t, 40, self.cond, np.zeros(18))
        assert np.array_equal(out, self.cond)

    def test_cache_is_rebuilt_after_parameter_changes(self, tmp_path):
        denoiser = perturbed_denoiser(2)
        schedule = DiffusionSchedule()

        def assert_fresh():
            got = denoiser.predict_x0(self.x_t, 70, self.cond, self.mask)
            want = fresh_copy(denoiser).predict_x0(self.x_t, 70, self.cond, self.mask)
            assert np.array_equal(got, want)

        assert_fresh()
        before = denoiser.predict_x0(self.x_t, 70, self.cond, self.mask)
        # an optimizer step replaces every parameter array
        opt = nk.AdamW(denoiser.params, lr=1e-2)
        item = PairItem(self.cond, self.x_t, boundary_index=9)
        loss = batch_loss([item], denoiser, schedule, LossConfig(), np.random.default_rng(0))
        denoiser.params.zero_grad()
        loss.backward()
        opt.step()
        assert_fresh()
        assert not np.array_equal(before, denoiser.predict_x0(self.x_t, 70, self.cond, self.mask))
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
        denoiser = perturbed_denoiser(4)
        rng = np.random.default_rng(12)
        other = rng.normal(size=self.cond.shape)
        narrow = make_boundary_mask(9, 9, 2).values
        cond = self.cond.copy()
        for mask in (self.mask, narrow):
            got = denoiser.predict_x0(self.x_t, 70, cond, mask)
            assert np.array_equal(got, fresh_copy(denoiser).predict_x0(self.x_t, 70, cond, mask))
        # another array of the same shape, then the same array changed in place
        got = denoiser.predict_x0(self.x_t, 70, other, narrow)
        assert np.array_equal(got, fresh_copy(denoiser).predict_x0(self.x_t, 70, other, narrow))
        denoiser.predict_x0(self.x_t, 70, cond, narrow)
        cond[4:14] += 1.0
        got = denoiser.predict_x0(self.x_t, 70, cond, narrow)
        assert np.array_equal(got, fresh_copy(denoiser).predict_x0(self.x_t, 70, cond, narrow))

    def test_inference_forward_equals_training_forward(self):
        denoiser = perturbed_denoiser(5)
        graph = denoiser.forward(self.x_t, 10, self.cond, self.mask)
        with nk.no_grad():
            first = denoiser.forward(self.x_t, 10, self.cond, self.mask)
            cached = denoiser.forward(self.x_t, 10, self.cond, self.mask)
        assert graph.requires_grad and not first.requires_grad
        assert np.array_equal(first.data, graph.data)
        assert np.array_equal(cached.data, graph.data)


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
        cfg = DenoiserConfig(motion_dim=206, latent=8, layers=1, heads=2, ffn=16,
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
