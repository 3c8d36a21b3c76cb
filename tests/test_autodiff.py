import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from swinseg import autodiff as ad
from swinseg.autodiff import GraphError, ShapeError, Tensor

from conftest import grad_check, rel_err

F64 = np.float64


def t64(data, rg=True):
    return Tensor(np.asarray(data, dtype=F64), requires_grad=rg, dtype=F64)


class TestMatmul:
    def test_identity(self, rng):
        x = rng.normal(size=(2, 2))
        out = ad.matmul(Tensor(np.eye(2), dtype=F64), Tensor(x, dtype=F64))
        np.testing.assert_allclose(out.data, x)

    def test_hand_value(self):
        out = ad.matmul(t64([[1, 2], [3, 4]]), t64([[5], [6]]))
        np.testing.assert_array_equal(out.data, [[17], [39]])

    def test_shape_mismatch_names_both(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            ad.matmul(t64(np.zeros((2, 3))), t64(np.zeros((4, 5))))

    def test_batched_grad(self, rng):
        a = t64(rng.normal(size=(3, 2, 4)))
        b = t64(rng.normal(size=(4, 5)))  # broadcast over batch
        grad_check(lambda: ad.reduce_sum(ad.matmul(a, b) * ad.matmul(a, b)), [a, b])

    def test_nd_at_2d_grad(self, rng):
        a = t64(rng.normal(size=(2, 3, 4, 5)))
        b = t64(rng.normal(size=(5, 6)))
        w = Tensor(rng.normal(size=(2, 3, 4, 6)), dtype=F64)
        assert ad.matmul(a, b).shape == (2, 3, 4, 6)
        grad_check(lambda: ad.reduce_sum(ad.gelu(ad.matmul(a, b)) * w), [a, b])


class TestConv3d:
    def test_1x1_channel_scaling(self):
        x = t64(np.full((1, 3, 3, 3), 3.0), rg=False)
        w = t64(np.full((1, 1, 1, 1, 1), 2.0), rg=False)
        out = ad.conv3d(x, w, t64(np.zeros(1), rg=False))
        np.testing.assert_allclose(out.data, 6.0)

    def test_all_ones_interior_sum(self):
        x = t64(np.ones((1, 5, 5, 5)), rg=False)
        w = t64(np.ones((1, 1, 3, 3, 3)), rg=False)
        out = ad.conv3d(x, w, padding=1)
        assert out.data[0, 2, 2, 2] == 27.0

    def test_input_smaller_than_kernel(self):
        x = t64(np.zeros((1, 2, 5, 5)), rg=False)
        w = t64(np.zeros((1, 1, 3, 3, 3)), rg=False)
        with pytest.raises(ShapeError, match="smaller than kernel"):
            ad.conv3d(x, w)
        assert ad.conv3d(x, w, padding=1).shape == (1, 2, 5, 5)

    def test_grad(self, rng):
        x = t64(rng.normal(size=(2, 4, 4, 4)))
        w = t64(rng.normal(size=(3, 2, 3, 3, 3)))
        b = t64(rng.normal(size=3))
        grad_check(lambda: ad.reduce_sum(ad.sigmoid(ad.conv3d(x, w, b, padding=1))),
                   [x, w, b], samples=20, rng=rng)


def conv3d_oracle(x, w, b, p, g):
    """conv3d output and gradients of sum(out * g) as explicit per-offset sums."""
    k = w.shape[2]
    xp = np.pad(x, ((0, 0),) + ((p, p),) * 3)
    D, H, W = (n - k + 1 for n in xp.shape[1:])
    out = np.broadcast_to(b[:, None, None, None], (w.shape[0], D, H, W)).copy()
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for a_ in range(k):
        for b_ in range(k):
            for c_ in range(k):
                sl = (slice(None), slice(a_, a_ + D), slice(b_, b_ + H), slice(c_, c_ + W))
                wk = w[:, :, a_, b_, c_]
                out += np.einsum("oi,idhw->odhw", wk, xp[sl])
                gxp[sl] += np.einsum("oi,odhw->idhw", wk, g)
                gw[:, :, a_, b_, c_] = np.einsum("odhw,idhw->oi", g, xp[sl])
    gx = gxp[:, p:p + x.shape[1], p:p + x.shape[2], p:p + x.shape[3]]
    return out, gx, gw, g.sum(axis=(1, 2, 3))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_conv3d_matches_oracle(rng, k, p):
    # non-cubic input; p > k-1 crops the output gradient for grad-x
    x = t64(rng.normal(size=(2, 5, 4, 3)))
    w = t64(rng.normal(size=(3, 2, k, k, k)))
    b = t64(rng.normal(size=3))
    out = ad.conv3d(x, w, b, padding=p)
    g = rng.normal(size=out.shape)
    ad.backward(ad.reduce_sum(out * Tensor(g, dtype=F64)))
    for got, want in zip((out.data, x.grad, w.grad, b.grad),
                         conv3d_oracle(x.data, w.data, b.data, p, g)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12


def test_conv3d_float32_parity(rng):
    # the decoder's full-resolution 3x3x3 conv (13 -> 12 channels at 32^3)
    x = rng.normal(size=(13, 32, 32, 32))
    w = rng.normal(size=(12, 13, 3, 3, 3)) * 0.1
    b = rng.normal(size=12)
    g = rng.normal(size=(12, 32, 32, 32))
    res = {}
    for dt in (np.float32, np.float64):
        xt, wt, bt = (Tensor(v.astype(dt), requires_grad=True, dtype=dt) for v in (x, w, b))
        out = ad.conv3d(xt, wt, bt, padding=1)
        ad.backward(ad.reduce_sum(out * Tensor(g.astype(dt), dtype=dt)))
        res[dt] = (out.data, xt.grad, wt.grad, bt.grad)
    for lo, hi in zip(res[np.float32], res[np.float64]):
        assert lo.dtype == np.float32
        assert np.abs(lo - hi).max() / np.abs(hi).max() <= 1e-6


class TestInstanceNorm:
    def test_normalizes(self, rng):
        x = t64(rng.normal(2.0, 3.0, size=(2, 4, 4, 4)), rg=False)
        out = ad.instance_norm(x, t64(np.ones(2), rg=False), t64(np.zeros(2), rg=False))
        for c in range(2):
            assert abs(out.data[c].mean()) <= 1e-6
            assert abs(out.data[c].var() - 1.0) <= 1e-4

    def test_constant_channel(self):
        x = t64(np.full((1, 3, 3, 3), 5.0), rg=False)
        out = ad.instance_norm(x, t64(np.ones(1), rg=False), t64(np.full(1, 7.0), rg=False))
        np.testing.assert_allclose(out.data, 7.0)

    def test_affine(self, rng):
        x = t64(rng.normal(size=(1, 4, 4, 4)), rg=False)
        base = ad.instance_norm(x, t64(np.ones(1), rg=False), t64(np.zeros(1), rg=False))
        out = ad.instance_norm(x, t64(np.full(1, 2.0), rg=False), t64(np.ones(1), rg=False))
        np.testing.assert_allclose(out.data, 2 * base.data + 1, atol=1e-12)

    def test_grad(self, rng):
        x = t64(rng.normal(size=(2, 3, 3, 3)))
        g = t64(rng.normal(size=2))
        b = t64(rng.normal(size=2))
        w = rng.normal(size=(2, 3, 3, 3))
        grad_check(lambda: ad.reduce_sum(ad.instance_norm(x, g, b) * Tensor(w, dtype=F64)),
                   [x, g, b], samples=20, rng=rng)


class TestLayerNorm:
    def test_grad(self, rng):
        x = t64(rng.normal(size=(5, 6)))
        g = t64(rng.normal(size=6))
        b = t64(rng.normal(size=6))
        w = rng.normal(size=(5, 6))
        grad_check(lambda: ad.reduce_sum(ad.layer_norm(x, g, b) * Tensor(w, dtype=F64)),
                   [x, g, b])


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(ad.softmax(t64([0.0, 0.0], rg=False)).data, [0.5, 0.5])

    def test_hand_value(self):
        out = ad.softmax(t64([0.0, math.log(3.0)], rg=False))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(4, 7))
        a = ad.softmax(t64(x, rg=False), axis=-1)
        b = ad.softmax(t64(x + 123.456, rg=False), axis=-1)
        assert np.abs(a.data - b.data).max() <= 1e-12

    def test_rows_sum_to_one(self, rng):
        out = ad.softmax(t64(rng.normal(size=(3, 5)), rg=False), axis=1)
        assert (out.data >= 0).all()
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_grad(self, rng):
        x = t64(rng.normal(size=(3, 4)))
        w = rng.normal(size=(3, 4))
        grad_check(lambda: ad.reduce_sum(ad.softmax(x, axis=-1) * Tensor(w, dtype=F64)), [x])


class TestElementwise:
    def test_sigmoid_zero(self):
        assert ad.sigmoid(t64(0.0, rg=False)).item() == 0.5

    def test_gelu_zero(self):
        assert ad.gelu(t64(0.0, rg=False)).item() == 0.0

    def test_gelu_one_independent_cdf(self):
        # independent oracle: x * Phi(x) via scipy.stats.norm
        expect = 1.0 * norm.cdf(1.0)
        assert abs(ad.gelu(t64(1.0, rg=False)).item() - expect) <= 1e-12
        assert abs(ad.gelu(t64(1.0, rg=False)).item() - 0.8413) <= 1e-4

    def test_broadcast_failure(self):
        with pytest.raises(ShapeError):
            ad.add(t64(np.zeros((2, 3)), rg=False), t64(np.zeros((4,)), rg=False))

    def test_grads(self, rng):
        x = t64(rng.normal(size=(3, 4)))
        y = t64(rng.normal(size=(4,)))
        grad_check(lambda: ad.reduce_sum(ad.gelu(x * y) + ad.sigmoid(x) * 2.0 + ad.div(x, ad.sigmoid(y) + 1.0)),
                   [x, y])


class TestShapeOps:
    def test_reshape_roundtrip(self, rng):
        x = rng.normal(size=(2, 3))
        out = ad.reshape(ad.reshape(Tensor(x, dtype=F64), (3, 2)), (2, 3))
        np.testing.assert_array_equal(out.data, x)

    def test_concat_shapes(self, rng):
        out = ad.concat([Tensor(rng.normal(size=(2, 4)), dtype=F64),
                         Tensor(rng.normal(size=(3, 4)), dtype=F64)], axis=0)
        assert out.shape == (5, 4)

    def test_sum_of_ones(self):
        assert ad.reduce_sum(Tensor(np.ones((2, 3, 4)), dtype=F64)).item() == 24.0

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            ad.reshape(t64(np.zeros((2, 3)), rg=False), (4, 2))
        with pytest.raises(ShapeError):
            ad.concat([t64(np.zeros((2, 3)), rg=False), t64(np.zeros((2, 4)), rg=False)], axis=0)

    def test_grads(self, rng):
        x = t64(rng.normal(size=(2, 3, 4)))
        w = rng.normal(size=(4, 2, 4))

        def f():
            a = ad.permute(x, (1, 0, 2))
            b = ad.pad(a, [(0, 1), (0, 0), (0, 0)])
            c = ad.concat([b, ad.reshape(x, (4, 2, 3))[..., [0, 1, 2, 0]]], axis=0)
            return ad.reduce_sum(c[:4] * Tensor(w, dtype=F64))

        grad_check(f, [x])


class TestBackward:
    def test_sum_of_squares(self, rng):
        x = t64(rng.normal(size=(5,)))
        loss = ad.reduce_sum(x * x)
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-12)

    def test_sigmoid_grad_analytic(self, rng):
        x = t64(rng.normal(size=(5,)))
        s = ad.sigmoid(x)
        ad.backward(ad.reduce_sum(s))
        np.testing.assert_allclose(x.grad, s.data * (1 - s.data), rtol=1e-12)

    def test_three_layer_fd(self, rng):
        x = t64(rng.normal(size=(3, 4)))
        w1 = t64(rng.normal(size=(4, 6)))
        w2 = t64(rng.normal(size=(6, 2)))

        def f():
            h = ad.gelu(ad.matmul(x, w1))
            return ad.reduce_sum(ad.softmax(ad.matmul(h, w2), axis=-1) * ad.sigmoid(ad.matmul(h, w2)))

        grad_check(f, [x, w1, w2])

    def test_non_scalar_loss(self, rng):
        x = t64(rng.normal(size=(3,)))
        with pytest.raises(GraphError):
            ad.backward(x * x)

    def test_double_backward_errors(self, rng):
        x = t64(rng.normal(size=(3,)))
        loss = ad.reduce_sum(x * x)
        ad.backward(loss)
        with pytest.raises(GraphError):
            ad.backward(loss)

    def test_grad_only_on_leaves(self, rng):
        # an op output keeps no gradient; the leaf's is the same as always
        x = t64(rng.normal(size=(5,)))
        y = ad.sigmoid(x)
        ad.backward(ad.reduce_sum(y * y))
        assert y.grad is None
        s = 1.0 / (1.0 + np.exp(-x.data))
        np.testing.assert_allclose(x.grad, 2 * s * s * (1 - s), rtol=1e-12)

    def test_linearity(self, rng):
        x = t64(rng.normal(size=(4,)))
        ad.backward(ad.reduce_sum(ad.gelu(x)))
        g1 = x.grad.copy()
        x.grad = None
        ad.backward(ad.reduce_sum(ad.gelu(x)) * 2.5)
        np.testing.assert_allclose(x.grad, 2.5 * g1, rtol=1e-15)

    def test_no_grad(self, rng):
        x = t64(rng.normal(size=(3,)))
        with ad.no_grad():
            y = ad.reduce_sum(x * x)
        assert not y.requires_grad
        with pytest.raises(GraphError):
            ad.backward(y)


class TestDeterminism:
    def test_bit_identical_runs(self):
        def run():
            rng = np.random.default_rng(99)
            x = Tensor(rng.normal(size=(4, 4)).astype(np.float32), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 4)).astype(np.float32), requires_grad=True)
            loss = ad.reduce_sum(ad.sigmoid(ad.matmul(x, w)))
            ad.backward(loss)
            return loss.item(), x.grad.tobytes(), w.grad.tobytes()

        assert run() == run()


# shape oracle: forward shape is a pure function of input shapes
@settings(max_examples=50, deadline=None)
@given(m=st.integers(1, 5), k=st.integers(1, 5), n=st.integers(1, 5),
       batch=st.integers(1, 3))
def test_matmul_shape_oracle(m, k, n, batch):
    a = Tensor(np.zeros((batch, m, k)), dtype=F64)
    b = Tensor(np.zeros((k, n)), dtype=F64)
    assert ad.matmul(a, b).shape == (batch, m, n)


@settings(max_examples=50, deadline=None)
@given(d=st.integers(3, 8), k=st.sampled_from([1, 3]), cin=st.integers(1, 3),
       cout=st.integers(1, 3), pad=st.integers(0, 1))
def test_conv_shape_oracle(d, k, cin, cout, pad):
    if d + 2 * pad < k:
        return
    x = Tensor(np.zeros((cin, d, d, d)), dtype=F64)
    w = Tensor(np.zeros((cout, cin, k, k, k)), dtype=F64)
    out = ad.conv3d(x, w, padding=pad)
    assert out.shape == (cout,) + ((d + 2 * pad - k) + 1,) * 3
