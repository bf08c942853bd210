from __future__ import annotations

import re

import numpy as np
import pytest

from nn_oracles import composed_gelu, composed_layer_norm, composed_segment_attention
from optim_oracles import Fp64MomentAdamW
from rope_oracle import slice_rope
from signweave.neuralkit import (
    AdamW,
    ParameterSet,
    Tensor,
    clamp,
    concat,
    cosine_lr,
    dense,
    fit,
    gelu,
    is_grad_enabled,
    layer_norm,
    load_checkpoint,
    no_grad,
    restore_into,
    rope_apply,
    rope_rotate,
    rope_table,
    save_checkpoint,
    scaled_dot_attention,
    segment_attention,
    segment_offsets,
    segment_positions,
    sinusoidal_embedding,
    softmax,
    stack,
    tensor,
    where,
)
from signweave.neuralkit.gradcheck import check_gradients
from signweave.neuralkit.tensor import _is_unique_ascending


def leaf(rng, shape, name=None):
    t = Tensor(rng.normal(size=shape), requires_grad=True, dtype=np.float64)
    t.name = name
    return t


class TestKernelGradients:
    """Every kernel against central finite differences (fp64, h=1e-5)."""

    def test_dense(self):
        rng = np.random.default_rng(0)
        x = leaf(rng, (4, 3), "x")
        w = leaf(rng, (3, 5), "w")
        b = leaf(rng, (5,), "b")
        check_gradients(lambda: (dense(x, w, b) ** 2).sum(), [x, w, b])

    def test_gelu(self):
        rng = np.random.default_rng(1)
        x = leaf(rng, (6,), "x")
        check_gradients(lambda: gelu(x).sum(), [x])

    def test_layer_norm(self):
        rng = np.random.default_rng(2)
        x = leaf(rng, (3, 8), "x")
        gamma = leaf(rng, (8,), "gamma")
        beta = leaf(rng, (8,), "beta")
        check_gradients(lambda: (layer_norm(x, gamma, beta) ** 3).sum(), [x, gamma, beta])

    def test_softmax(self):
        rng = np.random.default_rng(3)
        x = leaf(rng, (4, 5), "x")
        target = rng.normal(size=(4, 5))
        check_gradients(lambda: ((softmax(x) - target) ** 2).sum(), [x])

    def test_attention(self):
        rng = np.random.default_rng(4)
        q = leaf(rng, (2, 5, 4), "q")
        k = leaf(rng, (2, 6, 4), "k")
        v = leaf(rng, (2, 6, 4), "v")
        check_gradients(lambda: (scaled_dot_attention(q, k, v) ** 2).sum(), [q, k, v])

    def test_attention_causal(self):
        rng = np.random.default_rng(5)
        q = leaf(rng, (5, 4), "q")
        k = leaf(rng, (5, 4), "k")
        v = leaf(rng, (5, 4), "v")
        check_gradients(lambda: (scaled_dot_attention(q, k, v, causal=True) ** 2).sum(), [q, k, v])

    def test_attention_key_padding(self):
        rng = np.random.default_rng(6)
        q = leaf(rng, (2, 2, 4, 3), "q")
        k = leaf(rng, (2, 2, 4, 3), "k")
        v = leaf(rng, (2, 2, 4, 3), "v")
        valid = np.array([[True, True, True, False], [True, False, False, False]])[:, None, None, :]
        check_gradients(lambda: (scaled_dot_attention(q, k, v, key_padding_mask=valid) ** 2).sum(),
                        [q, k, v])

    def test_segment_attention(self):
        rng = np.random.default_rng(15)
        q = leaf(rng, (6, 8), "q")
        k = leaf(rng, (7, 8), "k")
        v = leaf(rng, (7, 6), "v")
        # two heads; the second segment has keys but no queries
        q_offsets, k_offsets = segment_offsets([2, 0, 4]), segment_offsets([3, 1, 3])
        rope = rope_table(np.array([0, 1, 0, 1, 2, 3]), 4, np.float64, heads=2)
        key_rope = rope_table(segment_positions(k_offsets), 4, np.float64, heads=2)
        check_gradients(lambda: (segment_attention(q, k, v, q_offsets, k_offsets, rope, key_rope) ** 2).sum(),
                        [q, k, v])

    def test_segment_attention_packed_projection(self):
        rng = np.random.default_rng(16)
        qkv = leaf(rng, (7, 24), "qkv")
        rows = np.array([0, 2, 3, 6])
        offsets = segment_offsets([3, 4])
        positions = segment_positions(offsets)
        rope = rope_table(positions, 4, np.float64, heads=2)

        def f():
            out = segment_attention(qkv, None, None, np.searchsorted(rows, offsets), offsets,
                                    rope_table(positions[rows], 4, np.float64, heads=2), key_rope=rope, rows=rows)
            return (out**2).sum()

        check_gradients(f, [qkv])

    def test_rope(self):
        rng = np.random.default_rng(6)
        x = leaf(rng, (5, 8), "x")
        pos = np.arange(5)
        check_gradients(lambda: (rope_apply(x, pos) ** 2).sum(), [x])

    def test_elementwise(self):
        rng = np.random.default_rng(7)
        x = leaf(rng, (7,), "x")
        check_gradients(lambda: (x.exp() + (x**2 + 1.2).log() + x.tanh() + x.sigmoid() + x.softplus()).sum(), [x])

    def test_matmul_div_getitem(self):
        rng = np.random.default_rng(8)
        a = leaf(rng, (3, 4), "a")
        b = leaf(rng, (4, 2), "b")

        def f():
            prod = a @ b
            return (prod[1:, :] / (prod.abs() + 2.0).sum()).sum()

        check_gradients(f, [a, b])

    def test_concat_stack_where(self):
        rng = np.random.default_rng(9)
        a = leaf(rng, (3, 2), "a")
        b = leaf(rng, (2, 2), "b")
        cond = rng.random((5, 2)) > 0.5

        def f():
            joined = concat([a, b], axis=0)
            chosen = where(cond, joined, joined * 0.5)
            piled = stack([chosen, chosen * 2.0], axis=0)
            return (piled**2).sum()

        check_gradients(f, [a, b])

    def test_getitem_strided_slice(self):
        rng = np.random.default_rng(13)
        x = leaf(rng, (5, 6), "x")
        weights = rng.normal(size=(3, 4))
        check_gradients(lambda: (x[::2, 1:5] * weights).sum(), [x])
        x.grad = None
        (x[::2, 1:5] * weights).sum().backward()
        expected = np.zeros((5, 6))
        expected[::2, 1:5] = weights
        assert np.array_equal(x.grad, expected)

    def test_getitem_repeated_fancy_index(self):
        rng = np.random.default_rng(14)
        x = leaf(rng, (3, 4), "x")
        idx = np.array([0, 2, 0, 0, 1])
        weights = rng.normal(size=(5, 4))
        check_gradients(lambda: (x[idx] * weights).sum(), [x])
        x.grad = None
        (x[idx] * weights).sum().backward()
        expected = np.stack([weights[0] + weights[2] + weights[3], weights[4], weights[1]])
        assert np.allclose(x.grad, expected, atol=1e-15)


class TestGatherGradient:
    """A gather's backward assigns for a key of strictly rising rows and adds
    with np.add.at for any other advanced key; both give np.add.at's bits."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("key", [np.array([0, 2, 3, 7]), np.array([1, 1, 4, 0, 4]), np.array([5, 2]),
                                     np.array([], dtype=int)], ids=["ascending", "repeated", "falling", "empty"])
    def test_same_bits_as_add_at(self, dtype, key):
        rng = np.random.default_rng(18)
        x = tensor(rng.normal(size=(8, 3)).astype(dtype), requires_grad=True)
        upstream = rng.normal(size=(len(key), 3)).astype(dtype)
        if len(key):
            upstream[0, 1] = -0.0  # np.add.at turns it into +0.0
        (x[key] * Tensor(upstream)).sum().backward()
        want = np.zeros((8, 3), dtype=dtype)
        np.add.at(want, key, upstream)
        assert x.grad.dtype == dtype and x.grad.tobytes() == want.tobytes()

    def test_only_rising_rows_skip_add_at(self):
        assert _is_unique_ascending(np.array([0, 3, 5])) and _is_unique_ascending(np.array([], dtype=int))
        for key in (np.array([3, 3]), np.array([-1, 2]), np.array([2, 1]), np.array([[0, 1]]),
                    np.array([True, False]), [0, 1], (np.array([0, 1]), 0)):
            assert not _is_unique_ascending(key)


class TestAttentionMask:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_padded_keys_match_unpadded_attention(self, dtype):
        rng = np.random.default_rng(7)
        q, k, v = (rng.normal(size=(2, 3, 5, 4)).astype(dtype) for _ in range(3))
        lengths = [5, 2]
        valid = np.arange(5)[None, :] < np.array(lengths)[:, None]
        out = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), key_padding_mask=valid[:, None, None, :])
        assert out.dtype == dtype
        tol = 1e-6 if dtype == np.float32 else 1e-13
        for b, n in enumerate(lengths):
            alone = scaled_dot_attention(Tensor(q[b]), Tensor(k[b, :, :n]), Tensor(v[b, :, :n]))
            np.testing.assert_allclose(out.data[b], alone.data, rtol=tol, atol=tol)

    def test_causal_fp32_stays_fp32(self):
        rng = np.random.default_rng(8)
        q, k, v = (Tensor(rng.normal(size=(4, 3)).astype(np.float32)) for _ in range(3))
        out = scaled_dot_attention(q, k, v, causal=True)
        assert out.dtype == np.float32
        # the first query sees only the first key
        np.testing.assert_allclose(out.data[0], v.data[0], rtol=1e-6)


class TestSegmentAttention:
    """segment_attention is one autograd node over packed rows in row layout:
    each head's columns side by side, queries rotated by a rope table, keys
    by another or not at all. Each segment gives `scaled_dot_attention`'s
    forward on its own rotated heads bit for bit, and the composed
    per-segment graph's gradients within the rounding of the dtype; float32
    inputs get float32 gradients."""

    # query and key rows per segment; the second segment has no queries
    Q_LENGTHS, K_LENGTHS = [3, 0, 5, 1], [4, 2, 6, 1]
    HEADS, DH = 2, 4
    RTOL = {np.float32: 1e-5, np.float64: 1e-10}

    def split(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], self.HEADS, self.DH).transpose(1, 0, 2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_per_segment_attention(self, monkeypatch, dtype):
        rng = np.random.default_rng(16)
        width = self.HEADS * self.DH
        q = rng.normal(size=(sum(self.Q_LENGTHS), width)).astype(dtype)
        k, v = (rng.normal(size=(sum(self.K_LENGTHS), width)).astype(dtype) for _ in range(2))
        weight = Tensor(rng.normal(size=q.shape).astype(dtype))
        q_offsets, k_offsets = segment_offsets(self.Q_LENGTHS), segment_offsets(self.K_LENGTHS)
        q_pos, k_pos = segment_positions(q_offsets), segment_positions(k_offsets)

        want_leaves = [tensor(a, requires_grad=True) for a in (q, k, v)]
        wq, wk, wv = (self.split(t) for t in want_leaves)
        wq, wk = rope_apply(wq, q_pos), rope_apply(wk, k_pos)
        spans = zip(q_offsets[:-1], q_offsets[1:], k_offsets[:-1], k_offsets[1:])
        heads = concat([scaled_dot_attention(wq[:, q0:q1], wk[:, k0:k1], wv[:, k0:k1])
                        for q0, q1, k0, k1 in spans if q1 > q0], axis=1)
        want = heads.transpose(1, 0, 2).reshape(q.shape)
        (want * weight).sum().backward()

        computed = []
        accumulate = Tensor._accumulate
        monkeypatch.setattr(Tensor, "_accumulate",
                            lambda t, g: computed.append(np.asarray(g).dtype) or accumulate(t, g))
        got_leaves = [tensor(a, requires_grad=True) for a in (q, k, v)]
        got = segment_attention(*got_leaves, q_offsets, k_offsets,
                                rope_table(q_pos, self.DH, dtype, heads=self.HEADS),
                                rope_table(k_pos, self.DH, dtype, heads=self.HEADS))
        (got * weight).sum().backward()
        assert computed and set(computed) == {np.dtype(dtype)}
        assert got.dtype == dtype and np.array_equal(got.data, want.data)
        for got_leaf, want_leaf in zip(got_leaves, want_leaves):
            assert got_leaf.grad.dtype == dtype
            np.testing.assert_allclose(got_leaf.grad, want_leaf.grad, rtol=self.RTOL[dtype],
                                       atol=self.RTOL[dtype] * np.abs(want_leaf.grad).max())
        # key rows that no query sees get no gradient
        assert not np.any(got_leaves[1].grad[4:6]) and not np.any(got_leaves[2].grad[4:6])

    def test_offsets_and_positions(self):
        offsets = segment_offsets([3, 1, 2])
        assert offsets.tolist() == [0, 3, 4, 6]
        assert segment_positions(offsets).tolist() == [0, 1, 2, 0, 0, 1]

    @pytest.mark.parametrize("q_lengths, k_lengths", [([2, 1], [6]), ([2, 2], [3, 3]), ([4, -1], [2, 4])],
                             ids=["segment-count", "row-count", "falling"])
    def test_bad_offsets_rejected(self, q_lengths, k_lengths):
        q, k = Tensor(np.zeros((3, 2))), Tensor(np.zeros((6, 2)))
        rope = rope_table(np.arange(3), 2, np.float64)
        with pytest.raises(ValueError, match="offsets"):
            segment_attention(q, k, k, segment_offsets(q_lengths), segment_offsets(k_lengths), rope)

    def test_bad_shapes_rejected(self):
        q, k = Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 4)))
        offsets = segment_offsets([3])
        with pytest.raises(ValueError, match="rope table"):
            segment_attention(q, k, k, offsets, offsets, rope_table(np.arange(2), 2, np.float64, heads=2))
        with pytest.raises(ValueError, match="rope table"):
            segment_attention(q, k, k, offsets, offsets, rope_table(np.arange(3), 2, np.float64, heads=2),
                              rope_table(np.arange(3), 4, np.float64))
        with pytest.raises(ValueError, match="rope table"):
            rope_rotate(q, rope_table(np.arange(2), 2, np.float64, heads=2))
        with pytest.raises(ValueError, match="keys and values"):
            segment_attention(q, k, None, offsets, offsets, rope_table(np.arange(3), 2, np.float64, heads=2))
        qkv = Tensor(np.zeros((3, 12)))
        with pytest.raises(ValueError, match="rows must rise"):
            segment_attention(qkv, None, None, segment_offsets([2]), offsets,
                              rope_table(np.arange(2), 2, np.float64, heads=2), rows=np.array([1, 1]))


class TestNoGrad:
    def test_builds_no_parents(self):
        rng = np.random.default_rng(15)
        x = leaf(rng, (3, 4), "x")
        w = leaf(rng, (4, 2), "w")
        with no_grad():
            assert not is_grad_enabled()
            out = gelu(dense(x, w))[1:]
        assert is_grad_enabled()
        assert not out.requires_grad and out._parents == () and out._backward is None
        assert np.array_equal(out.data, gelu(dense(x, w))[1:].data)

    def test_flag_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()
        with no_grad():
            with no_grad():
                pass
            assert not is_grad_enabled()
        assert is_grad_enabled()


class TestSoftmaxRows:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(10)
        x = tensor(rng.normal(size=(11, 7)) * 4)
        s = softmax(x).data
        assert np.allclose(s.sum(axis=1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("axis", [-1, 0])
    def test_bits_equal_the_max_shifted_softmax(self, dtype, axis):
        """The row max is taken with np.fmax.reduce; on finite rows and on
        rows masked to -inf the output has the bits of the .max version."""
        rng = np.random.default_rng(17)
        x = (rng.normal(size=(64, 4, 8, 8)) * 4).astype(dtype)
        masked = x.copy()
        masked[..., 5:] = -np.inf          # key padding: the last three keys of every row
        masked[:3, :, 2] = -np.inf         # whole rows masked: NaN either way
        for data in (x, masked):
            with np.errstate(invalid="ignore"):
                exps = np.exp(data - data.max(axis=axis, keepdims=True))
                want = exps / exps.sum(axis=axis, keepdims=True)
                got = softmax(tensor(data), axis=axis).data
            assert got.dtype == dtype
            assert got.tobytes() == want.tobytes()


class TestRope:
    def test_inner_product_depends_only_on_offset(self):
        rng = np.random.default_rng(11)
        q = rng.normal(size=(1, 8))
        k = rng.normal(size=(1, 8))
        d = 7  # relative offset

        def rotated_dot(p):
            rq = rope_apply(tensor(q), np.array([p])).data[0]
            rk = rope_apply(tensor(k), np.array([p + d])).data[0]
            return float(rq @ rk)

        assert rotated_dot(0) == pytest.approx(rotated_dot(7), abs=1e-10)
        assert rotated_dot(3) == pytest.approx(rotated_dot(10), abs=1e-10)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape,positions", [
        ((5, 8), np.arange(5)),
        ((3, 7, 16), np.arange(7)),
        ((2, 4, 6), np.array([9, 0, 3, 3])),
    ])
    def test_matches_slice_formula_bitwise(self, dtype, shape, positions):
        rng = np.random.default_rng(16)
        x_new = Tensor(rng.normal(size=shape), requires_grad=True, dtype=dtype)
        x_old = Tensor(x_new.data.copy(), requires_grad=True)
        upstream = rng.normal(size=shape).astype(dtype)
        new = rope_apply(x_new, positions)
        old = slice_rope(x_old, positions)
        assert new.dtype == old.dtype == dtype
        assert np.array_equal(new.data, old.data)
        (new * upstream).sum().backward()
        (old * upstream).sum().backward()
        assert np.array_equal(x_new.grad, x_old.grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rotate_rows_is_rope_apply_per_head(self, dtype):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(6, 3 * 8)).astype(dtype)
        positions = np.array([4, 0, 1, 2, 9, 3])
        upstream = rng.normal(size=x.shape).astype(dtype)
        rows = Tensor(x, requires_grad=True)
        got = rope_rotate(rows, rope_table(positions, 8, dtype, heads=3))
        (got * Tensor(upstream)).sum().backward()
        heads = Tensor(x.reshape(6, 3, 8).transpose(1, 0, 2), requires_grad=True)
        want = rope_apply(heads, positions)
        (want * Tensor(upstream.reshape(6, 3, 8).transpose(1, 0, 2))).sum().backward()
        assert got.dtype == rows.grad.dtype == dtype
        assert np.array_equal(got.data, want.data.transpose(1, 0, 2).reshape(x.shape))
        assert np.array_equal(rows.grad, heads.grad.transpose(1, 0, 2).reshape(x.shape))

    def test_rejects_bad_positions(self):
        x = tensor(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            rope_apply(x, np.array([0, -1]))
        with pytest.raises(ValueError):
            rope_apply(x, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            rope_apply(tensor(np.zeros((2, 3))), np.arange(2))


class TestAdamW:
    def test_zero_grad_no_decay_keeps_params(self):
        params = ParameterSet(dtype=np.float64)
        p = params.add("p", np.array([1.0, 2.0]))
        opt = AdamW(params, lr=0.1, weight_decay=0.0)
        p.grad = np.zeros_like(p.data)
        opt.step()
        assert np.allclose(p.data, [1.0, 2.0])

    def test_zero_grad_with_decay_shrinks(self):
        params = ParameterSet(dtype=np.float64)
        p = params.add("p", np.array([1.0, -2.0]))
        opt = AdamW(params, lr=0.1, weight_decay=0.5)
        p.grad = np.zeros_like(p.data)
        opt.step()
        assert np.allclose(p.data, np.array([1.0, -2.0]) * (1.0 - 0.1 * 0.5))

    def test_single_step_hand_computed(self):
        # one AdamW step on f(p) = p^2 from p=1 with lr=0.01, wd=0.1
        params = ParameterSet(dtype=np.float64)
        p = params.add("p", np.array([1.0]))
        opt = AdamW(params, lr=0.01, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.1)
        p.grad = np.array([2.0])
        opt.step()
        m_hat = (0.1 * 2.0) / (1 - 0.9)
        v_hat = (0.001 * 4.0) / (1 - 0.999)
        expected = 1.0 - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8) - 0.01 * 0.1 * 1.0
        assert p.data[0] == pytest.approx(expected, abs=1e-15)


def _twin_param_sets(dtype, seed):
    """Two parameter sets with equal values, as for the optimizer and its oracle."""
    rng = np.random.default_rng(seed)
    shapes = {"w": (6, 5), "b": (5,), "g": (3, 2, 4)}
    values = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    sets = []
    for _ in range(2):
        params = ParameterSet(dtype=dtype)
        for name, value in values.items():
            params.add(name, value)
        sets.append(params)
    return sets


def _adamw_pair(dtype, steps, seed=20):
    """AdamW and the fp64-moment oracle fed the same gradients under a cosine
    learning rate, with weight decay; one tensor has no gradient on odd steps."""
    params, ref_params = _twin_param_sets(dtype, seed)
    opt = AdamW(params, lr=3e-3, betas=(0.9, 0.99), weight_decay=0.05)
    ref = Fp64MomentAdamW(ref_params, lr=3e-3, betas=(0.9, 0.99), weight_decay=0.05)
    rng = np.random.default_rng(seed + 1)
    for step in range(steps):
        for name in params.names():
            g = None
            if name != "b" or step % 2 == 0:
                g = (rng.normal(size=params[name].shape) * 10.0 ** rng.uniform(-3, 1)).astype(dtype)
            params[name].grad = g
            ref_params[name].grad = None if g is None else g.copy()
        lr = cosine_lr(step, steps, 3e-3)
        opt.step(lr=lr)
        ref.step(lr=lr)
    return params, ref_params, opt


class TestAdamWAgainstFp64Oracle:
    def test_fp64_parameters_match_exactly(self):
        params, ref_params, _ = _adamw_pair(np.float64, steps=50)
        for name in params.names():
            assert np.array_equal(params[name].data, ref_params[name].data), name

    def test_fp32_parameters_match_within_fp32_rounding(self):
        params, ref_params, opt = _adamw_pair(np.float32, steps=50)
        for name in params.names():
            got, want = params[name].data, ref_params[name].data
            assert got.dtype == np.float32
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5, err_msg=name)
            assert opt._m[name].dtype == np.float32 and opt._v[name].dtype == np.float32

    def test_step_assigns_new_parameter_arrays(self):
        params, _ = _twin_param_sets(np.float32, seed=3)
        before = {name: params[name].data for name in params.names()}
        for name in params.names():
            params[name].grad = np.ones_like(params[name].data)
        AdamW(params, lr=1e-2).step()
        for name in params.names():
            assert params[name].data is not before[name]
            assert not np.shares_memory(params[name].data, before[name])


class TestFit:
    """`fit`, the one training loop: a least-squares fit of three weights to
    five target rows, two rows a batch, over four steps."""

    batches = [np.array([0, 1]), np.array([2, 3]), np.array([4, 0]), np.array([1, 2])]

    @staticmethod
    def _params(ema_decay=None):
        params = ParameterSet(dtype=np.float64, ema_decay=ema_decay)
        params.add("w", np.array([1.0, -2.0, 0.5]))
        return params

    def _fit(self, params, targets, batches):
        def loss_of(idx):
            d = params["w"] - Tensor(targets[idx])
            return (d * d).mean()

        return fit(params, batches, loss_of, total_steps=len(self.batches), lr=0.1, weight_decay=0.01,
                   grad_clip=1.0, ema_decay=params.ema_decay)

    def test_returns_per_step_losses_and_updates_the_ema(self):
        params = self._params(ema_decay=0.5)
        targets = np.random.default_rng(0).normal(size=(5, 3))
        losses = self._fit(params, targets, self.batches)
        assert len(losses) == 4 and all(type(loss) is float for loss in losses)
        # each loss is scored before its step
        assert losses[0] == np.mean((np.array([1.0, -2.0, 0.5]) - targets[[0, 1]]) ** 2)
        assert params["w"].grad is None
        assert not np.array_equal(params.ema_value("w"), params["w"].data)
        assert not np.array_equal(params.ema_value("w"), [1.0, -2.0, 0.5])

    def test_non_finite_loss_stops_before_its_step(self):
        """A NaN loss at step 2 raises, naming the step and the batch, and
        leaves the parameters as the first two steps left them."""
        targets = np.random.default_rng(0).normal(size=(5, 3))
        expected = self._params()
        self._fit(expected, targets, self.batches[:2])
        targets[4, 1] = np.nan
        params = self._params()
        with pytest.raises(ValueError) as exc:
            self._fit(params, targets, self.batches)
        assert str(exc.value) == "non-finite loss nan at step 2 (batch indices [4, 0])"
        assert np.array_equal(params["w"].data, expected["w"].data)


class TestCosineLr:
    def test_returns_a_python_float(self):
        # a numpy float64 scalar would promote an fp32 array it scales to fp64
        for step in (0, 3, 9):
            lr = cosine_lr(step, 10, 1e-3, min_lr=1e-5)
            assert type(lr) is float
            assert (lr * np.ones(3, dtype=np.float32)).dtype == np.float32
        assert type(cosine_lr(0, 1, np.float64(1e-3))) is float

    def test_endpoints(self):
        assert cosine_lr(0, 10, 1e-3, min_lr=1e-5) == pytest.approx(1e-3)
        assert cosine_lr(9, 10, 1e-3, min_lr=1e-5) == pytest.approx(1e-5)


class TestGradNorm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_fp64_norm_and_clip_keeps_dtype(self, dtype):
        params, _ = _twin_param_sets(dtype, seed=4)
        rng = np.random.default_rng(5)
        for name in params.names():
            g = rng.normal(size=params[name].shape).astype(dtype)
            # a non-contiguous gradient, as a transposed product leaves one
            params[name].grad = np.asfortranarray(g) if g.ndim > 1 else g
        expected = np.sqrt(sum(np.sum(params[n].grad.astype(np.float64) ** 2) for n in params.names()))
        norm = params.clip_grad_norm(1.0)
        assert type(norm) is float
        assert norm == pytest.approx(expected, rel=1e-6 if dtype == np.float32 else 1e-12)
        assert params.global_grad_norm() == pytest.approx(1.0, rel=1e-5)
        assert all(params[n].grad.dtype == dtype for n in params.names())


class TestEma:
    def test_identical_shadow_unchanged(self):
        params = ParameterSet(dtype=np.float64, ema_decay=0.9)
        p = params.add("p", np.array([3.0]))
        params.ema_update()
        assert params.ema_value("p")[0] == pytest.approx(3.0)

    def test_decay_zero_copies_params(self):
        params = ParameterSet(dtype=np.float64, ema_decay=0.0)
        p = params.add("p", np.array([1.0]))
        p.data = np.array([5.0])
        params.ema_update()
        assert params.ema_value("p")[0] == pytest.approx(5.0)

    def test_two_steps_closed_form(self):
        d = 0.8
        params = ParameterSet(dtype=np.float64, ema_decay=d)
        p = params.add("p", np.array([0.0]))  # shadow starts at 0
        p.data = np.array([1.0])
        params.ema_update()
        p.data = np.array([2.0])
        params.ema_update()
        expected = d * (d * 0.0 + (1 - d) * 1.0) + (1 - d) * 2.0
        assert params.ema_value("p")[0] == pytest.approx(expected, abs=1e-15)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        params = ParameterSet(dtype=np.float32)
        params.add("layer.weight", rng.normal(size=(3, 4)))
        params.add("layer.bias", rng.normal(size=4))
        params.ema_update(decay=0.5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)

        fresh = ParameterSet(dtype=np.float32)
        fresh.add("layer.weight", np.zeros((3, 4)))
        fresh.add("layer.bias", np.zeros(4))
        restore_into(fresh, load_checkpoint(path))
        assert np.array_equal(fresh["layer.weight"].data, params["layer.weight"].data)
        assert np.array_equal(fresh.ema_value("layer.bias"), params.ema_value("layer.bias"))

    def _small_checkpoint(self, tmp_path, dtype=np.float32, ema_decay=0.9999):
        params = ParameterSet(dtype=dtype, ema_decay=ema_decay)
        params.add("w", np.arange(6.0).reshape(2, 3))
        params.add("scalar", np.array(1.5))
        params.add("b", np.ones(2))
        path = tmp_path / "small.ckpt"
        save_checkpoint(path, params)
        return path, path.read_bytes()

    def test_every_truncation_is_rejected_with_the_path(self, tmp_path):
        for dtype, ema_decay in ((np.float32, 0.9999), (np.float64, 0.9999), (np.float32, None)):
            path, raw = self._small_checkpoint(tmp_path, dtype, ema_decay)
            assert raw[:16] == b"SWCK\x03\x00\x00\x00\x03\x00\x00\x00" + bytes([ema_decay is not None, 0, 0, 0])
            assert set(load_checkpoint(path)) == {"w", "scalar", "b"}
            cut = tmp_path / "cut.ckpt"
            for length in range(len(raw)):
                cut.write_bytes(raw[:length])
                with pytest.raises(ValueError, match="truncated checkpoint") as exc:
                    load_checkpoint(cut)
                assert str(cut) in str(exc.value), (dtype, length)
                # the field the error names starts at or before the cut and ends after it
                needs, offset, size = map(int, re.search(r"needs (\d+) bytes at offset (\d+), file has (\d+)",
                                                         str(exc.value)).groups())
                assert size == length and offset <= length < offset + needs, (dtype, length)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_arrays_keep_their_parameter_dtype(self, tmp_path, dtype):
        rng = np.random.default_rng(5)
        params = ParameterSet(dtype=dtype)
        params.add("w", rng.normal(size=(3, 4)))
        params.ema_update(decay=0.3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        [(data, ema)] = load_checkpoint(path).values()
        assert data.dtype == ema.dtype == dtype
        assert data.tobytes() == params["w"].data.tobytes()
        assert ema.tobytes() == params.ema_value("w").tobytes()

    @pytest.mark.parametrize("header,message", [
        (b"\x03\x00\x00\x00\x01\x00\x00\x00", "no SWCK magic number"),  # a version 1 file
        (b"SWCK\x01\x00\x00\x00", "checkpoint version 1, expected 3"),
        # version 2 wrote an EMA shadow for every parameter set
        (b"SWCK\x02\x00\x00\x00", "checkpoint version 2, expected 3"),
        (b"SWCK\x04\x00\x00\x00", "checkpoint version 4, expected 3"),
        # version 3, three records, an EMA flag that is neither 0 nor 1
        (b"SWCK\x03\x00\x00\x00\x03\x00\x00\x00\x02\x00\x00\x00", "checkpoint EMA flag 2, expected 0 or 1"),
    ])
    def test_other_format_is_rejected_with_the_path(self, tmp_path, header, message):
        path, raw = self._small_checkpoint(tmp_path)
        path.write_bytes(header + raw[len(header):])
        with pytest.raises(ValueError, match=message) as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)

    def test_unknown_dtype_code_is_rejected(self, tmp_path):
        path, raw = self._small_checkpoint(tmp_path)
        path.write_bytes(raw[:21] + b"\x02" + raw[22:])  # the first record's dtype code
        with pytest.raises(ValueError, match="unknown dtype code 2") as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)

    def test_trailing_bytes_are_rejected(self, tmp_path):
        path, raw = self._small_checkpoint(tmp_path)
        for extra in (b"\x00", b"\x01\x00\x00\x00", raw):
            path.write_bytes(raw + extra)
            with pytest.raises(ValueError, match=f"{len(extra)} trailing bytes") as exc:
                load_checkpoint(path)
            assert str(path) in str(exc.value)

    def test_loaded_arrays_are_taken_over_without_a_copy(self, tmp_path):
        path, _ = self._small_checkpoint(tmp_path)
        loaded = load_checkpoint(path)
        fresh = ParameterSet(dtype=np.float32)
        for name, (data, _) in loaded.items():
            assert data.flags.writeable and data.flags.aligned
            fresh.add(name, np.zeros(data.shape))
        restore_into(fresh, loaded)
        for name, (data, ema) in loaded.items():
            assert fresh[name].data is data and fresh.ema_value(name) is ema

    def test_shared_value_and_ema_are_split_before_an_ema_update(self):
        x = np.arange(6.0, dtype=np.float32).reshape(2, 3)
        params = ParameterSet(dtype=np.float32)
        params.add("w", np.zeros((2, 3)))
        restore_into(params, {"w": (x, x)})
        assert params["w"].data is x and params.ema_value("w") is not x
        params.ema_update(decay=0.5)
        assert np.array_equal(params["w"].data, np.arange(6.0).reshape(2, 3))
        assert np.array_equal(params.ema_value("w"), np.arange(6.0).reshape(2, 3))

    def test_name_that_is_not_utf8_is_rejected(self, tmp_path):
        path, raw = self._small_checkpoint(tmp_path)
        path.write_bytes(raw[:20] + b"\xff" + raw[21:])  # the first name's only byte
        with pytest.raises(ValueError, match="not UTF-8") as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value)

    def test_set_without_ema_keeps_and_writes_no_shadow(self, tmp_path):
        rng = np.random.default_rng(14)
        params = ParameterSet(dtype=np.float32, ema_decay=None)
        params.add("w", rng.normal(size=(3, 4)))
        params.add("b", rng.normal(size=4))
        assert not params.keeps_ema and params._ema == {}
        for call in (params.ema_update, params.swap_in_ema, lambda: params.ema_value("w")):
            with pytest.raises(ValueError, match="keeps no EMA shadows"):
                call()
        path = tmp_path / "plain.ckpt"
        save_checkpoint(path, params)
        # header, then per record: name length, name, dtype code, ndim, shape, values
        assert path.stat().st_size == 16 + (4 + 1 + 8 + 8 + 48) + (4 + 1 + 8 + 4 + 16)
        loaded = load_checkpoint(path)
        assert all(ema is None for _, ema in loaded.values())
        fresh = ParameterSet(dtype=np.float32, ema_decay=None)
        fresh.add("w", np.zeros((3, 4)))
        fresh.add("b", np.zeros(4))
        restore_into(fresh, loaded)
        for name in ("w", "b"):
            assert fresh[name].data.tobytes() == params[name].data.tobytes()
        assert fresh._ema == {}

    def test_ema_records_must_match_the_set(self, tmp_path):
        sets = {}
        for ema_decay in (0.9999, None):
            params = ParameterSet(dtype=np.float32, ema_decay=ema_decay)
            params.add("w", np.ones((2, 2)))
            save_checkpoint(tmp_path / f"{ema_decay}.ckpt", params)
            sets[ema_decay] = params
        with pytest.raises(ValueError, match="no EMA shadow for w"):
            restore_into(sets[0.9999], load_checkpoint(tmp_path / "None.ckpt"))
        with pytest.raises(ValueError, match="an EMA shadow for w"):
            restore_into(sets[None], load_checkpoint(tmp_path / "0.9999.ckpt"))

    def test_missing_param_rejected(self, tmp_path):
        params = ParameterSet()
        params.add("a", np.zeros(2))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        other = ParameterSet()
        other.add("b", np.zeros(2))
        with pytest.raises(KeyError):
            restore_into(other, load_checkpoint(path))


class TestClampAndHelpers:
    def test_clamp_gradient_inside_only(self):
        x = Tensor(np.array([-5.0, 0.5, 5.0]), requires_grad=True)
        loss = clamp(x, -3.0, 3.0).sum()
        loss.backward()
        assert np.allclose(x.grad, [0.0, 1.0, 0.0])

    def test_sinusoidal_embedding_shape(self):
        emb = sinusoidal_embedding(np.array([0.0, 1.0, 2.0]), 16)
        assert emb.shape == (3, 16)
        assert np.allclose(emb[0], np.concatenate([np.ones(8), np.zeros(8)]))


class TestFullModelGradient:
    def test_two_layer_toy_model(self):
        rng = np.random.default_rng(13)
        params = ParameterSet(dtype=np.float64)
        w1 = params.add("w1", rng.normal(size=(6, 8)) * 0.4)
        b1 = params.add("b1", np.zeros(8))
        g1 = params.add("g1", np.ones(8))
        be1 = params.add("be1", np.zeros(8))
        w2 = params.add("w2", rng.normal(size=(8, 6)) * 0.4)
        b2 = params.add("b2", np.zeros(6))
        x = rng.normal(size=(5, 6))
        target = rng.normal(size=(5, 6))

        def f():
            h = gelu(dense(tensor(x), w1, b1))
            h = layer_norm(h, g1, be1)
            out = dense(h, w2, b2)
            return ((out - tensor(target)) ** 2).mean()

        check_gradients(f, params.tensors(), tol=1e-5)


class TestDeterminism:
    def test_identical_seeds_identical_updates(self):
        def run():
            rng = np.random.default_rng(99)
            params = ParameterSet(dtype=np.float32)
            w = params.add("w", rng.normal(size=(4, 4)))
            opt = AdamW(params, lr=1e-2, weight_decay=1e-4)
            for _ in range(5):
                x = tensor(rng.normal(size=(3, 4)).astype(np.float32))
                loss = ((x @ w) ** 2).mean()
                params.zero_grad()
                loss.backward()
                opt.step()
                params.ema_update()
            return w.data.copy(), params.ema_value("w").copy()

        w_a, e_a = run()
        w_b, e_b = run()
        assert np.array_equal(w_a, w_b)
        assert np.array_equal(e_a, e_b)


class TestFusedKernelsAgainstOracles:
    """layer_norm, gelu and segment_attention are single autograd nodes; the
    composed versions in nn_oracles give the same forward bit for bit and the
    same gradients within the rounding of the dtype, and float32 inputs get
    float32 gradients."""

    SHAPES = [(7, 64), (3, 5, 64), (2, 3, 4, 33)]
    RTOL = {np.float32: 1e-5, np.float64: 1e-10}

    @staticmethod
    def run(kernel, arrays, weight):
        leaves = [tensor(a, requires_grad=True) for a in arrays]
        out = kernel(*leaves)
        (out * Tensor(weight)).sum().backward()
        return out.data, [t.grad for t in leaves]

    def check(self, monkeypatch, kernel, oracle, arrays, weight, dtype):
        want, want_grads = self.run(oracle, arrays, weight)
        # the dtypes the kernel's backward computes in, before a leaf would
        # cast them to its own
        computed = []
        accumulate = Tensor._accumulate
        monkeypatch.setattr(Tensor, "_accumulate",
                            lambda t, g: computed.append(np.asarray(g).dtype) or accumulate(t, g))
        got, got_grads = self.run(kernel, arrays, weight)
        assert computed and set(computed) == {np.dtype(dtype)}
        assert got.dtype == dtype and np.array_equal(got, want)
        for got_grad, want_grad in zip(got_grads, want_grads):
            assert got_grad.dtype == dtype
            np.testing.assert_allclose(got_grad, want_grad, rtol=self.RTOL[dtype],
                                       atol=self.RTOL[dtype] * np.abs(want_grad).max())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_layer_norm(self, monkeypatch, dtype, shape):
        rng = np.random.default_rng(len(shape))
        x = (rng.normal(size=shape) * 3.0 + 1.0).astype(dtype)
        gamma = rng.normal(size=shape[-1]).astype(dtype)
        beta = rng.normal(size=shape[-1]).astype(dtype)
        weight = rng.normal(size=shape).astype(dtype)
        self.check(monkeypatch, layer_norm, composed_layer_norm, [x, gamma, beta], weight, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_gelu(self, monkeypatch, dtype, shape):
        rng = np.random.default_rng(len(shape) + 10)
        x = (rng.normal(size=shape) * 3.0).astype(dtype)
        weight = rng.normal(size=shape).astype(dtype)
        self.check(monkeypatch, gelu, composed_gelu, [x], weight, dtype)

    # two heads of four; the second segment has keys but no queries
    Q_LENGTHS, K_LENGTHS, HEADS, DH = [3, 0, 5, 1], [4, 2, 6, 1], 2, 4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("keys", ["rotated-here", "rotated-before", "packed"])
    def test_segment_attention(self, monkeypatch, dtype, keys):
        """The node against the chain it replaced: split heads, rope_apply,
        head-major segment attention, merge heads. Keys are rotated from
        their positions by the node (self-attention), given rotated
        (cross-attention's cached keys), or cut with the queries and values
        from one packed projection with a subset of query rows."""
        rng = np.random.default_rng(20)
        width = self.HEADS * self.DH
        q_offsets, k_offsets = segment_offsets(self.Q_LENGTHS), segment_offsets(self.K_LENGTHS)
        q_pos, k_pos = segment_positions(q_offsets), segment_positions(k_offsets)
        rope = rope_table(q_pos, self.DH, dtype, heads=self.HEADS)
        key_rope = rope_table(k_pos, self.DH, dtype, heads=self.HEADS)
        n_q, n_k = q_offsets[-1], k_offsets[-1]
        weight = rng.normal(size=(n_q, width)).astype(dtype)
        if keys == "packed":
            rows = np.array([0, 1, 3, 6, 7, 8, 9, 10, 12])
            q_offsets = np.searchsorted(rows, k_offsets)
            q_pos = k_pos[rows]
            rope = rope_table(q_pos, self.DH, dtype, heads=self.HEADS)
            qkv = rng.normal(size=(n_k, 3 * width)).astype(dtype)

            def kernel(x):
                return segment_attention(x, None, None, q_offsets, k_offsets, rope, key_rope, rows=rows)

            def oracle(x):
                return composed_segment_attention(x[rows][:, :width], x[:, width : 2 * width], x[:, 2 * width :],
                                                  self.HEADS, q_offsets, k_offsets, q_pos, k_pos)

            self.check(monkeypatch, kernel, oracle, [qkv], weight, dtype)
            return
        rotate = keys == "rotated-here"
        arrays = [rng.normal(size=(n, width)).astype(dtype) for n in (n_q, n_k, n_k)]
        self.check(monkeypatch,
                   lambda q, k, v: segment_attention(q, k, v, q_offsets, k_offsets, rope,
                                                     key_rope if rotate else None),
                   lambda q, k, v: composed_segment_attention(q, k, v, self.HEADS, q_offsets, k_offsets, q_pos,
                                                              k_pos if rotate else None),
                   arrays, weight, dtype)

    def test_layer_norm_with_frozen_affine(self):
        rng = np.random.default_rng(3)
        x = tensor(rng.normal(size=(4, 8)), requires_grad=True)
        gamma, beta = tensor(rng.normal(size=8)), tensor(rng.normal(size=8))
        layer_norm(x, gamma, beta).sum().backward()
        assert x.grad is not None and gamma.grad is None and beta.grad is None
