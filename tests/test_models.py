"""Reference model families and their training contracts."""

import tracemalloc

import numpy as np
import pytest

from emap.data import PairedDataset
from emap.exceptions import InputError
from emap.grid import build_grid, emap_decompose, projection_loss
from emap.models import (
    PAIR_BLOCK_CELLS,
    TRAIN_BLOCK_CELLS,
    FeedForwardConfig,
    FeedForwardModel,
    LinearConfig,
    LinearModel,
    Poly2Config,
    Poly2Model,
    _activation,
    _cross_entropy,
    _ffn_loss_and_grads,
    _ffn_model,
    _fit_softmax_descent,
    _poly2_adjoint,
    _poly2_logits,
    _softmax,
    train_interactive,
    train_linear,
)

import test_paths as paths


def make_dataset(text, visual, labels, num_classes=2, split=None):
    n = len(labels)
    if split is None:
        split = np.zeros(n, dtype=np.int8)  # everything train
    return PairedDataset(
        text=np.asarray(text, dtype=np.float64),
        visual=np.asarray(visual, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.int64),
        split=split,
        num_classes=num_classes,
    )


def additive_labels_dataset(n=600, d1=5, d2=4, seed=0):
    """Labels from a known additive rule: y = 1[a.t + b.v > 0]."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(d1), rng.standard_normal(d2)
    T, V = rng.standard_normal((n, d1)), rng.standard_normal((n, d2))
    y = (T @ a + V @ b > 0).astype(np.int64)
    split = np.zeros(n, dtype=np.int8)
    split[-n // 4 :] = 2  # last quarter is test
    return make_dataset(T, V, y, split=split)


def expand(T, V):
    """The explicit degree-2 features ``[t; v; t_a * v_b]`` whose weights poly2 stores."""
    return np.hstack([T, V, np.einsum("na,nb->nab", T, V).reshape(len(T), -1)])


def ffn_params(rng, d1, d2, width, hidden, classes):
    """Random feed-forward parameters in training's order: both projections, then each layer."""
    params = [rng.standard_normal((d1, width)), rng.standard_normal(width)]
    params += [rng.standard_normal((d2, width)), rng.standard_normal(width)]
    widths = [4 * width, *hidden, classes]
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        params += [rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in), rng.standard_normal(fan_out)]
    return params


def sign_product_dataset(n=500, seed=0):
    """y = 1[t_1 * v_1 > 0]: no unimodal or additive signal by symmetry."""
    rng = np.random.default_rng(seed)
    T, V = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
    y = (T[:, 0] * V[:, 0] > 0).astype(np.int64)
    return make_dataset(T, V, y)


class TestLinear:
    def test_zero_weights_give_zero_logits(self):
        model = LinearModel(w_t=np.zeros((3, 2)), w_v=np.zeros((2, 2)), b=np.zeros(2))
        np.testing.assert_array_equal(model.logits_many(np.ones((1, 3)), np.ones((1, 2))), 0.0)

    def test_logits_decompose_additively(self):
        rng = np.random.default_rng(1)
        model = LinearModel(
            w_t=rng.standard_normal((3, 2)),
            w_v=rng.standard_normal((4, 2)),
            b=rng.standard_normal(2),
        )
        t, v = rng.standard_normal((1, 3)), rng.standard_normal((1, 4))
        recombined = (
            model.logits_many(t, np.zeros((1, 4))) + model.logits_many(np.zeros((1, 3)), v) - model.b
        )
        np.testing.assert_allclose(model.logits_many(t, v), recombined, atol=1e-12)

    def test_separable_toy_reaches_perfect_train_accuracy(self):
        T = np.array([[-2.0], [-1.5], [1.5], [2.0]])
        V = np.zeros((4, 1))
        ds = make_dataset(T, V, [0, 0, 1, 1])
        model = train_linear(ds, LinearConfig(l2=0.0, epochs=400))
        preds = np.argmax(model.logits_many(T, V), axis=1)
        assert np.array_equal(preds, [0, 0, 1, 1])

    def test_additive_labels_generalize(self):
        ds = additive_labels_dataset()
        model = train_linear(ds, LinearConfig(epochs=400))
        test = ds.subset("test")
        acc = np.mean(np.argmax(model.logits_many(test.text, test.visual), axis=1) == test.labels)
        assert acc >= 0.95

    def test_loss_never_increases(self):
        """The halving rule makes the committed loss sequence non-increasing."""
        rng = np.random.default_rng(2)
        X = rng.standard_normal((80, 6))
        y = (X[:, 0] + 0.3 * rng.standard_normal(80) > 0).astype(np.int64)
        _, _, history = _fit_softmax_descent(
            lambda w: X @ w, lambda g: X.T @ g, X.shape[1], y, 2, l2=1e-4, lr=1.0, epochs=120
        )
        assert len(history) > 10
        assert np.all(np.diff(history) <= 1e-6)

    @pytest.mark.parametrize("lr", [1e3, 1e12])
    def test_a_step_that_raises_the_loss_is_halved(self, lr):
        """A first step of ``lr`` overshoots; halving it still makes the loss fall, without a warning
        (the suite turns a RuntimeWarning into an error)."""
        X, y = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.5]]), np.array([0, 1, 1, 0])
        fit = _fit_softmax_descent(lambda w: X @ w, lambda g: X.T @ g, 2, y, 2, l2=0.1, lr=lr, epochs=30)
        history = fit[2]
        grad = _softmax(np.zeros((4, 2)))
        grad[np.arange(4), y] -= 1.0
        w, b = -lr * X.T @ grad / 4, -lr * grad.sum(axis=0) / 4
        full_step = _cross_entropy(_softmax(X @ w + b), y) + 0.5 * 0.1 * float(np.sum(w * w))
        assert full_step > history[0]
        assert len(history) > 1 and history[-1] < history[0]
        assert np.all(np.diff(history) <= 0)

    def test_determinism(self):
        ds = additive_labels_dataset(n=200)
        a = train_linear(ds, LinearConfig(seed=0))
        b = train_linear(ds, LinearConfig(seed=0))
        assert a.w_t.tobytes() == b.w_t.tobytes()
        assert a.b.tobytes() == b.b.tobytes()

    def test_dimension_mismatch(self):
        model = LinearModel(w_t=np.zeros((3, 2)), w_v=np.zeros((2, 2)), b=np.zeros(2))
        with pytest.raises(InputError):
            model.logits_many(np.zeros((1, 4)), np.zeros((1, 2)))


class TestPoly2:
    # 1021 = 10 * 102 + 1 pairs: PAIR_BLOCK_CELLS holds 102 rows at d2 * classes = 80
    @pytest.mark.parametrize(
        "n, d1, d2, classes", [(4000, 60, 40, 2), (500, 60, 40, 2), (1021, 60, 40, 2), (1001, 7, 5, 3)])
    def test_block_size_leaves_every_row_of_a_many_row_block_unchanged(self, n, d1, d2, classes):
        """Any block size gives every row the bits of one block of all rows, N = 1 (mod rows) too:
        the blocks are balanced, so none has one row, which numpy would score with its
        matrix-vector kernel, whose bits differ."""
        rng = np.random.default_rng(14)
        T, V = rng.standard_normal((n, d1)), rng.standard_normal((n, d2))
        w = rng.standard_normal((d1 + d2 + d1 * d2, classes))
        expected = _poly2_logits(w, T, V, n * d2 * classes)
        for rows in (1, 2, 3, 5, 31, 102, n // 2, n):
            assert _poly2_logits(w, T, V, rows * d2 * classes).tobytes() == expected.tobytes(), rows
        for cells in (PAIR_BLOCK_CELLS, TRAIN_BLOCK_CELLS):
            assert _poly2_logits(w, T, V, cells).tobytes() == expected.tobytes(), cells

    def test_single_cross_term_breaks_additivity(self):
        """One nonzero product weight makes the grid non-additive."""
        w = np.zeros((2 + 2 + 4, 2))
        w[4, 1] = 1.0  # the t_1 * v_1 product feeding class 1
        model = Poly2Model(w=w, b=np.zeros(2), d1=2, d2=2)
        rng = np.random.default_rng(3)
        T, V = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
        grid = build_grid(model, T, V)
        assert projection_loss(grid, emap_decompose(grid)) > 1e-3

    def test_direct_logits_match_the_einsum_and_the_grid_diagonal(self):
        rng = np.random.default_rng(5)
        d1, d2, classes, n = 4, 3, 3, 2000  # n spans several row blocks of logits_many
        model = Poly2Model(
            w=rng.standard_normal((d1 + d2 + d1 * d2, classes)),
            b=rng.standard_normal(classes),
            d1=d1,
            d2=d2,
        )
        T, V = rng.standard_normal((n, d1)), rng.standard_normal((n, d2))
        w_t, w_v, w_x = model.w[:d1], model.w[d1 : d1 + d2], model.w[d1 + d2 :].reshape(d1, d2, classes)
        reference = T @ w_t + V @ w_v + np.einsum("na,abc,nb->nc", T, w_x, V) + model.b
        logits = model.logits_many(T, V)
        np.testing.assert_allclose(logits, reference, rtol=0, atol=1e-12)
        last = slice(n - 40, n)
        diagonal = model.logits_grid(T[last], V[last])[np.arange(40), np.arange(40)]
        np.testing.assert_allclose(logits[last], diagonal, rtol=0, atol=1e-12)

    def test_learns_sign_product_task(self):
        ds = sign_product_dataset()
        model = train_interactive(ds, "poly2", Poly2Config(epochs=300))
        train = ds.subset("train")
        acc = np.mean(np.argmax(model.logits_many(train.text, train.visual), axis=1) == train.labels)
        assert acc >= 0.95

    def test_wide_inputs_train_without_a_feature_budget(self):
        """10 200 weights per class: the width that once exceeded the expansion budget."""
        rng = np.random.default_rng(9)
        ds = make_dataset(rng.standard_normal((4, 100)), rng.standard_normal((4, 100)), [0, 1, 0, 1])
        model = train_interactive(ds, "poly2", Poly2Config(epochs=20))
        assert model.w.shape == (100 + 100 + 100 * 100, 2)
        assert np.all(np.isfinite(model.logits_many(ds.text, ds.visual)))

    def test_adjoint_is_the_transpose_of_the_expanded_features(self):
        rng = np.random.default_rng(10)
        n, d1, d2, classes = 300, 4, 3, 3
        T, V = rng.standard_normal((n, d1)), rng.standard_normal((n, d2))
        w = rng.standard_normal((d1 + d2 + d1 * d2, classes))
        g = rng.standard_normal((n, classes))
        features = expand(T, V)
        reference = features.T @ g
        adjoint = _poly2_adjoint(g, T, V)
        assert adjoint.shape == reference.shape
        assert np.abs(adjoint - reference).max() <= 1e-12 * np.abs(reference).max()
        forward = _poly2_logits(w, T, V)
        np.testing.assert_allclose(forward, features @ w, rtol=0, atol=1e-12 * np.abs(forward).max())
        # <forward(w), g> = <w, adjoint(g)>
        assert np.isclose(np.sum(forward * g), np.sum(w * adjoint), rtol=1e-12, atol=0)

    def test_fit_matches_descent_on_the_expanded_features(self):
        rng = np.random.default_rng(11)
        n, d1, d2 = 400, 5, 4
        T, V = rng.standard_normal((n, d1)), rng.standard_normal((n, d2))
        y = (T[:, 0] * V[:, 0] + 0.3 * T[:, 1] > 0).astype(np.int64)
        ds = make_dataset(T, V, y)
        cfg = Poly2Config(epochs=150)
        features = expand(T, V)
        args = (features.shape[1], y, 2, cfg.l2, cfg.lr, cfg.epochs)
        w_ref, b_ref, history_ref = _fit_softmax_descent(
            lambda w: features @ w, lambda g: features.T @ g, *args
        )
        _, _, history = _fit_softmax_descent(
            lambda w: _poly2_logits(w, T, V), lambda g: _poly2_adjoint(g, T, V), *args
        )
        model = train_interactive(ds, "poly2", cfg)
        assert len(history) == len(history_ref)
        np.testing.assert_allclose(history, history_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.w, w_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.b, b_ref, rtol=0, atol=1e-12)


def reference_ffn_step(params, T, V, y, activation, l2):
    """The training step before its buffers: fresh arrays for every product, relu's derivative as floats."""
    act, act_grad = _activation(activation)
    if activation == "relu":
        act_grad = lambda x: (x > 0.0).astype(np.float64)  # noqa: E731
    tp, vp = T @ params[0] + params[1], V @ params[2] + params[3]
    wa, wb, wc, w_prod = np.split(params[4], 4)
    w_t, w_v = wa - wc, wb + wc
    prod = vp * tp
    z = prod @ w_prod
    z += vp @ w_v + params[5]
    z += tp @ w_t
    pre, post = [z], []
    for w, b in zip(params[6::2], params[7::2]):
        post.append(act(pre[-1]))
        pre.append(post[-1] @ w)
        pre[-1] += b
    probs = _softmax(pre[-1])
    loss = _cross_entropy(probs, y)
    if l2 > 0.0:
        loss += 0.5 * l2 * sum(float(np.sum(p * p)) for p in params[::2])
    grads = [None] * len(params)
    delta = probs
    delta[np.arange(len(y)), y] -= 1.0
    delta /= len(y)
    for k in reversed(range(1, len(pre))):
        grads[4 + 2 * k : 6 + 2 * k] = post[k - 1].T @ delta, delta.sum(axis=0)
        delta = (delta @ params[4 + 2 * k].T) * act_grad(pre[k - 1])
    g_t, g_v = tp.T @ delta, vp.T @ delta
    grads[4:6] = np.vstack([g_t, g_v, g_v - g_t, prod.T @ delta]), delta.sum(axis=0)
    d_prod = delta @ w_prod.T
    d_tp = delta @ w_t.T + d_prod * vp
    d_vp = delta @ w_v.T + d_prod * tp
    grads[:4] = T.T @ d_tp, d_tp.sum(axis=0), V.T @ d_vp, d_vp.sum(axis=0)
    if l2 > 0.0:
        grads[::2] = [g + l2 * p for g, p in zip(grads[::2], params[::2])]
    return loss, grads


def reference_train_feedforward(data, cfg):
    """``_train_feedforward`` on ``reference_ffn_step``, with the momentum update out of place."""
    train, h = data.subset("train"), cfg.proj_width
    rng = np.random.default_rng(cfg.seed)

    def init(fan_in, fan_out):
        return rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)

    params = [init(train.d1, h), np.zeros(h), init(train.d2, h), np.zeros(h)]
    widths = [4 * h, *cfg.hidden, data.num_classes]
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        params += [init(fan_in, fan_out), np.zeros(fan_out)]
    velocity = [np.zeros_like(p) for p in params]
    lr, best_loss, stall = cfg.lr, np.inf, 0
    for _ in range(cfg.epochs):
        loss, grads = reference_ffn_step(params, train.text, train.visual, train.labels, cfg.activation, cfg.l2)
        if loss < best_loss * (1.0 - cfg.plateau_rtol):
            best_loss, stall = loss, 0
        else:
            stall += 1
            if stall >= cfg.plateau_patience:
                lr, stall = lr * 0.5, 0
        for i, g in enumerate(grads):
            velocity[i] = cfg.momentum * velocity[i] - lr * g
            params[i] = params[i] + velocity[i]
    return params


class TestFeedForward:
    @pytest.mark.parametrize("activation", ["relu", "gelu"])
    @pytest.mark.parametrize("hidden", [(), (7, 5)], ids=["one-layer", "two-hidden"])
    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    def test_buffered_training_equals_the_reference_step_bit_for_bit(self, activation, hidden, l2):
        """Five epochs through reused buffers give the weights of fresh arrays, step halvings included."""
        rng = np.random.default_rng(15)
        T, V = rng.standard_normal((150, 3)), rng.standard_normal((150, 4))
        ds = make_dataset(T, V, (T[:, 0] * V[:, 0] > 0).astype(np.int64))
        cfg = FeedForwardConfig(proj_width=6, hidden=hidden, activation=activation, l2=l2, epochs=5,
                                lr=0.05, plateau_patience=1, plateau_rtol=0.08)
        model = train_interactive(ds, "feedforward", cfg)
        got = [model.proj_t, model.proj_t_b, model.proj_v, model.proj_v_b]
        got += [array for layer in model.layers for array in layer]
        expected = reference_train_feedforward(ds, cfg)
        assert [p.tobytes() for p in got] == [p.tobytes() for p in expected]
        # one step: the loss and every gradient, from buffers a previous step wrote into
        params = ffn_params(rng, 3, 4, 6, hidden, 2)
        n = len(T)
        buffers = [np.empty((n, 6)), np.empty((n, 6)), *_ffn_model(params, activation)._buffers(n, n)]
        _ffn_loss_and_grads(ffn_params(rng, 3, 4, 6, hidden, 2), T, V, ds.labels, activation, l2, buffers)
        loss, grads = _ffn_loss_and_grads(params, T, V, ds.labels, activation, l2, buffers)
        ref_loss, ref_grads = reference_ffn_step(params, T, V, ds.labels, activation, l2)
        assert loss == ref_loss
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in ref_grads]

    def test_learns_sign_product_where_linear_cannot(self):
        ds = sign_product_dataset(n=400, seed=7)
        cfg = FeedForwardConfig(proj_width=8, hidden=(16,), epochs=400, seed=0)
        ffn = train_interactive(ds, "feedforward", cfg)
        train = ds.subset("train")
        ffn_acc = np.mean(np.argmax(ffn.logits_many(train.text, train.visual), axis=1) == train.labels)
        lin = train_linear(ds, LinearConfig(epochs=200))
        lin_acc = np.mean(np.argmax(lin.logits_many(train.text, train.visual), axis=1) == train.labels)
        assert ffn_acc >= 0.95
        assert 0.35 <= lin_acc <= 0.65

    def test_determinism(self):
        ds = sign_product_dataset(n=120)
        cfg = FeedForwardConfig(proj_width=4, hidden=(8,), epochs=30, seed=5)
        a = train_interactive(ds, "feedforward", cfg)
        b = train_interactive(ds, "feedforward", cfg)
        for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
            assert wa.tobytes() == wb.tobytes()
            assert ba.tobytes() == bb.tobytes()
        assert a.proj_t.tobytes() == b.proj_t.tobytes()

    def test_gelu_activation_supported(self):
        ds = sign_product_dataset(n=80)
        cfg = FeedForwardConfig(proj_width=4, hidden=(8,), epochs=10, activation="gelu")
        model = train_interactive(ds, "feedforward", cfg)
        out = model.logits_many(ds.text[:3], ds.visual[:3])
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("activation", ["relu", "gelu"])
    @pytest.mark.parametrize("hidden", [(), (7, 5)], ids=["one-layer", "two-hidden"])
    @pytest.mark.parametrize("n_t, n_v", [(5, 8), (1, 1)], ids=["rectangular", "single"])
    def test_split_first_layer_matches_the_concatenated_head(self, activation, hidden, n_t, n_v):
        """logits_grid and logits_many agree with the network as written, features concatenated."""
        rng = np.random.default_rng(6)
        d1, d2, width, classes = 3, 4, 6, 2
        widths = [4 * width, *hidden, classes]
        model = FeedForwardModel(
            proj_t=rng.standard_normal((d1, width)),
            proj_t_b=rng.standard_normal(width),
            proj_v=rng.standard_normal((d2, width)),
            proj_v_b=rng.standard_normal(width),
            layers=tuple(
                (rng.standard_normal((fan_in, fan_out)), rng.standard_normal(fan_out))
                for fan_in, fan_out in zip(widths[:-1], widths[1:])
            ),
            activation=activation,
        )
        T, V = rng.standard_normal((n_t, d1)), rng.standard_normal((n_v, d2))

        def concatenated_head(T, V):
            act, _ = _activation(activation)
            tp, vp = T @ model.proj_t + model.proj_t_b, V @ model.proj_v + model.proj_v_b
            h = np.hstack([tp, vp, vp - tp, vp * tp])
            for w, b in model.layers[:-1]:
                h = act(h @ w + b)
            w, b = model.layers[-1]
            return h @ w + b

        pairs = np.repeat(T, n_v, axis=0), np.tile(V, (n_t, 1))
        reference = concatenated_head(*pairs)
        tol = 1e-12 * (1.0 + np.abs(reference).max())
        grid = model.logits_grid(T, V)
        assert grid.shape == (n_t, n_v, classes)
        np.testing.assert_allclose(grid.reshape(-1, classes), reference, rtol=0, atol=tol)
        np.testing.assert_allclose(model.logits_many(*pairs), reference, rtol=0, atol=tol)

    @pytest.mark.parametrize("activation", ["relu", "gelu"])
    @pytest.mark.parametrize("hidden", [(), (7, 5)], ids=["one-layer", "two-hidden"])
    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    def test_training_gradients_match_central_differences(self, activation, hidden, l2):
        rng = np.random.default_rng(12)
        d1, d2, width, classes, n = 3, 2, 3, 3, 10
        params = ffn_params(rng, d1, d2, width, hidden, classes)
        T, V = rng.standard_normal((n, d1)), rng.standard_normal((n, d2))
        y = rng.integers(0, classes, n)
        _, grads = _ffn_loss_and_grads(params, T, V, y, activation, l2)
        eps = 1e-6
        numeric = []
        for p in params:
            numeric.append(np.empty_like(p))
            for idx in np.ndindex(p.shape):
                value = p[idx]
                p[idx] = value + eps
                up = _ffn_loss_and_grads(params, T, V, y, activation, l2)[0]
                p[idx] = value - eps
                down = _ffn_loss_and_grads(params, T, V, y, activation, l2)[0]
                p[idx] = value
                numeric[-1][idx] = (up - down) / (2 * eps)
        for i, (grad, expected) in enumerate(zip(grads, numeric)):
            assert grad.shape == expected.shape
            np.testing.assert_allclose(grad, expected, rtol=1e-6, atol=1e-8, err_msg=f"parameter {i}")
        # the first layer's blocks [Wa; Wb; Wc; Wd] one by one: Wc's gradient is g_v - g_t
        for name, grad, expected in zip("abcd", np.split(grads[4], 4), np.split(numeric[4], 4)):
            np.testing.assert_allclose(grad, expected, rtol=1e-6, atol=1e-8, err_msg=f"W{name}")

    @pytest.mark.parametrize("activation", ["relu", "gelu"])
    @pytest.mark.parametrize("hidden", [(), (7, 5), (128, 128)], ids=["one-layer", "two-hidden", "default"])
    def test_training_forward_equals_logits_many_bit_for_bit(self, activation, hidden):
        rng = np.random.default_rng(13)
        d1, d2, width, classes, n = 6, 5, 16, 3, 300
        params = ffn_params(rng, d1, d2, width, hidden, classes)
        model = FeedForwardModel(*params[:4], tuple(zip(params[4::2], params[5::2])), activation)
        T, V = rng.standard_normal((n, d1)), rng.standard_normal((n, d2))
        y = rng.integers(0, classes, n)
        act, _ = _activation(activation)
        tp, vp = model._project(T, V)
        score, prod, pre, post = model._head(tp, vp)
        logits = score(slice(None))
        assert logits is pre[-1]
        assert logits.tobytes() == model.logits_many(T, V).tobytes()
        # the buffers training back-propagates from: each activation's input is kept beside it
        assert prod.tobytes() == (vp * tp).tobytes()
        assert len(post) == len(pre) - 1
        for z, a in zip(pre, post):
            assert a.tobytes() == act(z).tobytes()
        loss, _ = _ffn_loss_and_grads(params, T, V, y, activation, 0.0)
        assert loss == _cross_entropy(_softmax(model.logits_many(T, V)), y)

    def test_unknown_kind_rejected(self):
        ds = sign_product_dataset(n=40)
        with pytest.raises(InputError):
            train_interactive(ds, "svm")


@pytest.mark.parametrize("kind", ["linear", "poly2"])
def test_grid_peak_memory_stays_below_one_and_a_half_grids(kind):
    """logits_grid fills its planes in place: no second N^2 x d array at its peak."""
    n, classes = 600, 2
    model, (T, V) = paths.scorer(kind, classes), paths.items(n, n)
    grid_bytes = n * n * classes * 8
    tracemalloc.start()
    try:
        values = model.logits_grid(T, V)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == (n, n, classes)
    assert peak < 1.5 * grid_bytes, peak / grid_bytes


@pytest.mark.parametrize(
    "kind, classes, n_t, n_v",
    [
        pytest.param(kind, classes, n_t, n_v, id=f"{n_t}-{n_v}-{classes}-{kind}")
        for kind, classes in paths.cases("marginals")
        for n_t, n_v in paths.PATHS["marginals"].sizes
    ],
)
def test_marginals_equal_the_decomposition_of_the_grid(kind, classes, n_t, n_v):
    """Model-level criterion 04: the closed-form marginals are the grid's EMAP, rectangular grids too."""
    paths.check_marginals(kind, classes, n_t, n_v)


@pytest.mark.parametrize("config", [LinearConfig, Poly2Config, FeedForwardConfig])
@pytest.mark.parametrize(
    "bad",
    [{"lr": 0.0}, {"lr": -1.0}, {"lr": float("nan")}, {"lr": float("inf")}, {"epochs": 0}, {"l2": -1e-3}],
    ids=["zero-lr", "negative-lr", "nan-lr", "inf-lr", "zero-epochs", "negative-l2"],
)
def test_descent_config_refuses_unusable_values(config, bad):
    with pytest.raises(InputError):
        config(**bad)


def test_feedforward_config_refuses_empty_layers():
    assert FeedForwardConfig(proj_width=1, hidden=(1,)).hidden == (1,)
    for bad in ({"proj_width": 0}, {"hidden": (0, 5)}, {"hidden": (-3,)}):
        with pytest.raises(InputError):
            FeedForwardConfig(**bad)


class TestSerialization:
    def test_linear_roundtrip(self):
        """Linear, and poly2: a linear model of the expanded features."""
        paths.run("model_file", "linear", "poly2")

    def test_feedforward_roundtrip_preserves_predictions(self):
        paths.run("model_file", "feedforward", "feedforward_flat")
