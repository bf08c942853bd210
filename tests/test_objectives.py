from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from signweave.neuralkit import Tensor
from signweave.neuralkit.gradcheck import check_gradients
from signweave.objectives import BoundaryTargets, boundary_loss, ctc_loss, fm_loss, min_ctc_length

# frames per flow-matching block in these tests
N_FRAMES = 8


def ctc_brute_force(logprobs: np.ndarray, target: list[int], blank: int) -> float:
    """Enumerate every label path, collapse, and sum matching probabilities."""
    length, n_classes = logprobs.shape
    total = 0.0
    for path in itertools.product(range(n_classes), repeat=length):
        collapsed = []
        prev = None
        for sym in path:
            if sym != prev:
                if sym != blank:
                    collapsed.append(sym)
            prev = sym
        if collapsed == list(target):
            total += math.exp(sum(logprobs[t, s] for t, s in enumerate(path)))
    return -math.log(total) if total > 0 else math.inf


def random_logprobs(rng, length, n_classes):
    logits = rng.normal(size=(length, n_classes))
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


class TestFlowMatching:
    def test_exact_velocity_zero_loss(self):
        rng = np.random.default_rng(0)
        x0 = {p: rng.normal(size=(N_FRAMES, 4)) for p in ("body", "face", "hand")}
        x1 = {p: rng.normal(size=(N_FRAMES, 4)) for p in ("body", "face", "hand")}
        v = {p: x1[p] - x0[p] for p in x0}
        total, components = fm_loss(v, x0, x1)
        assert total.item() == pytest.approx(0.0, abs=1e-15)

    def test_identical_endpoints(self):
        rng = np.random.default_rng(1)
        x = {p: rng.normal(size=(N_FRAMES, 3)) for p in ("body", "face", "hand")}
        v = {p: rng.normal(size=(N_FRAMES, 3)) for p in ("body", "face", "hand")}
        total, components = fm_loss(v, x, x)
        for p in components:
            assert components[p].item() == pytest.approx((v[p] ** 2).mean(), rel=1e-12)

    def test_hand_weight(self):
        zeros = {p: np.zeros((N_FRAMES, 2)) for p in ("body", "face", "hand")}
        v = {"body": np.zeros((N_FRAMES, 2)), "face": np.zeros((N_FRAMES, 2)),
             "hand": np.ones((N_FRAMES, 2))}
        total_1, _ = fm_loss(v, zeros, zeros, lambda_hand=1.0)
        total_2, _ = fm_loss(v, zeros, zeros, lambda_hand=2.0)
        assert total_2.item() == pytest.approx(2.0 * total_1.item())

    def test_gradient_matches_closed_form_and_fd(self):
        rng = np.random.default_rng(2)
        x0 = {p: rng.normal(size=(4, 3)) for p in ("body", "face", "hand")}
        x1 = {p: rng.normal(size=(4, 3)) for p in ("body", "face", "hand")}
        v = {p: Tensor(rng.normal(size=(4, 3)), requires_grad=True, dtype=np.float64) for p in x0}
        for name, t in v.items():
            t.name = name

        def f():
            total, _ = fm_loss(v, x0, x1)
            return total

        errors = check_gradients(f, list(v.values()), tol=1e-6)
        assert max(errors.values()) < 1e-6
        loss = f()
        for t in v.values():
            t.grad = None
        loss.backward()
        for p in ("body", "face"):
            closed = 2.0 * (v[p].data - (x1[p] - x0[p])) / v[p].data.size
            assert np.allclose(v[p].grad, closed, atol=1e-12)


class TestBoundaryLoss:
    def test_perfect_confident_predictions(self):
        targets = BoundaryTargets(np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([True, True]))
        loss = boundary_loss(np.array([30.0, -30.0]), np.array([-30.0, 30.0]), targets).item()
        assert loss == pytest.approx(0.0, abs=1e-8)

    def test_rate_term_zero_when_means_match(self):
        # p = [0.75, 0.25]: mean 0.5 matches target mean despite per-block errors
        p = np.array([0.75, 0.25])
        z = np.log(p / (1 - p))
        targets = BoundaryTargets(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([True, True]))
        with_rate = boundary_loss(z, z, targets, lambda_rate=0.05).item()
        without_rate = boundary_loss(z, z, targets, lambda_rate=0.0).item()
        assert with_rate == pytest.approx(without_rate, abs=1e-12)

    def test_single_block_hand_computed(self):
        targets = BoundaryTargets(np.array([1.0]), np.array([0.0]), np.array([True]))
        loss = boundary_loss(np.array([0.0]), np.array([-50.0]), targets, lambda_rate=0.0).item()
        # sent: -20 ln 0.5; turn: -ln(1 - sigmoid(-50)) ~ 0
        assert loss == pytest.approx(20.0 * math.log(2.0), rel=1e-6)

    def test_invalid_blocks_ignored(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=4)
        targets_a = BoundaryTargets(np.array([1.0, 0, 0, 1]), np.array([0.0, 0, 1, 0]),
                                    np.array([True, True, False, False]))
        loss_a = boundary_loss(z, z, targets_a).item()
        z_mod = z.copy()
        z_mod[2:] += 100.0
        loss_b = boundary_loss(z_mod, z_mod, targets_a).item()
        assert loss_a == pytest.approx(loss_b, abs=1e-9)

    def test_rate_term_permutation_invariant(self):
        rng = np.random.default_rng(4)
        z_sent = rng.normal(size=6)
        z_turn = rng.normal(size=6)
        y_sent = (rng.random(6) > 0.5).astype(float)
        y_turn = (rng.random(6) > 0.5).astype(float)
        valid = np.ones(6, dtype=bool)
        perm = rng.permutation(6)
        a = boundary_loss(z_sent, z_turn, BoundaryTargets(y_sent, y_turn, valid)).item()
        b = boundary_loss(z_sent[perm], z_turn[perm],
                          BoundaryTargets(y_sent[perm], y_turn[perm], valid)).item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_gradient_fd(self):
        rng = np.random.default_rng(5)
        z_sent = Tensor(rng.normal(size=5), requires_grad=True, dtype=np.float64)
        z_turn = Tensor(rng.normal(size=5), requires_grad=True, dtype=np.float64)
        z_sent.name, z_turn.name = "z_sent", "z_turn"
        targets = BoundaryTargets((rng.random(5) > 0.6).astype(float),
                                  (rng.random(5) > 0.6).astype(float),
                                  np.array([True, True, True, True, False]))
        check_gradients(lambda: boundary_loss(z_sent, z_turn, targets), [z_sent, z_turn], tol=1e-6)

    def test_no_valid_blocks_rejected(self):
        with pytest.raises(ValueError):
            BoundaryTargets(np.array([1.0]), np.array([0.0]), np.array([False]))


class TestCtc:
    def test_single_frame_single_symbol(self):
        rng = np.random.default_rng(6)
        lp = random_logprobs(rng, 1, 4)
        assert ctc_loss(lp, [2]) == pytest.approx(-lp[0, 2], abs=1e-12)

    def test_two_frame_paths_enumerated(self):
        rng = np.random.default_rng(7)
        lp = random_logprobs(rng, 2, 3)  # classes {0, 1, blank=2}
        got = ctc_loss(lp, [0])
        # paths: (0,0), (0,blank), (blank,0)
        expected = -math.log(
            math.exp(lp[0, 0] + lp[1, 0])
            + math.exp(lp[0, 0] + lp[1, 2])
            + math.exp(lp[0, 2] + lp[1, 0])
        )
        assert got == pytest.approx(expected, abs=1e-10)

    def test_uniform_logits_closed_form(self):
        v = 3
        length = 4
        lp = np.full((length, v + 1), -math.log(v + 1))
        target = [0, 1]
        blank = v
        expected = ctc_brute_force(lp, target, blank)
        assert ctc_loss(lp, target) == pytest.approx(expected, abs=1e-10)

    def test_matches_enumeration_randomized(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            v = int(rng.integers(2, 5))
            length = int(rng.integers(1, 7))
            n_target = int(rng.integers(1, 4))
            target = list(rng.integers(0, v, size=n_target))
            lp = random_logprobs(rng, length, v + 1)
            expected = ctc_brute_force(lp, target, blank=v)
            got = ctc_loss(lp, target)
            if math.isinf(expected):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(expected, abs=1e-6)

    def test_too_short_is_infinite(self):
        lp = np.full((2, 3), -1.0)
        assert math.isinf(ctc_loss(lp, [0, 0]))  # repeat needs a separating blank
        assert min_ctc_length([0, 0]) == 3

    def test_blank_targets_rejected(self):
        lp = np.full((3, 3), -1.0)
        with pytest.raises(ValueError):
            ctc_loss(lp, [2])

