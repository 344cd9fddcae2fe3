"""Desk-scale reference models spanning the additive/interactive divide.

The linear model is additive by construction: its logits split into a
text-only part plus a visual-only part, so its cross-pairing grid is an
exact fixed point of the additive projection.  The two interactive families
can represent multiplicative cross-modal structure: a logistic model trained
on a bilinear cross term (never expanded into product features), and a
feed-forward network over projected features ``[t'; v'; v' - t'; v' * t']``.
Each model trains through its own scoring code: the linear model on
``T w_t + V w_v`` and poly2 on ``_poly2_logits``, the forms ``logits_many``
scores, and the network through its ``_project`` and ``_head``.  The
network's first layer is one formula split by input side: three quarters
of it is affine in one side at a time, so a grid computes that part once
per item and only the product block once per cell.

All training is full-batch and deterministic given the config seed.  Each
model offers the scorer protocol of ``grid.as_scorer``: ``logits_many(T, V)``
scores paired rows (one pair is one row), ``logits_grid(T, V)`` all text x
visual cross-pairings, filling an ``(N_t, N_v, d)`` array in the
channel-major layout ``grid.ScoreGrid`` keeps, plane by plane and without
an N^2 x d temporary, and ``marginals(T, V)`` gives the exact projection or
None.  The linear and poly2 models and the network without hidden layers
are affine in each input side, so their ``marginals`` (``_affine_marginals``)
score each side against the other side's mean in O(N * d) memory.
``from_json_dict`` checks every weight's shape and finiteness, so a
malformed model file fails at load with ``InputError``.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict, field

import numpy as np

from .data import PairedDataset, check_pairs, check_widths
from .exceptions import InputError, NumericError
from .grid import AdditiveDecomposition

__all__ = [
    "LinearConfig",
    "Poly2Config",
    "FeedForwardConfig",
    "LinearModel",
    "Poly2Model",
    "FeedForwardModel",
    "train_linear",
    "train_interactive",
]


# cells of the unimodal outer-sum temporary that poly2's logits_grid adds per block
GRID_BLOCK_CELLS = 1 << 16
# cells of poly2's per-block bilinear temporary in logits_many: at 64 KB glibc serves it
# from its heap; freeing a larger block raises glibc's mmap and trim thresholds, and the
# eval's peak RSS then rose by about 1 MB at N = 3000
PAIR_BLOCK_CELLS = 1 << 13
TRAIN_BLOCK_CELLS = 1 << 20  # the same temporary in training, whose many forwards run faster in larger gemms


def _check_descent(cfg) -> None:
    """Refuse a gradient-descent setting that could only fail or fit nothing."""
    if not (np.isfinite(cfg.lr) and cfg.lr > 0):
        raise InputError(f"lr must be finite and > 0, got {cfg.lr}")
    if cfg.epochs < 1:
        raise InputError(f"epochs must be >= 1, got {cfg.epochs}")
    if not (np.isfinite(cfg.l2) and cfg.l2 >= 0):
        raise InputError(f"l2 must be finite and >= 0, got {cfg.l2}")


@dataclass(frozen=True)
class LinearConfig:
    l2: float = 1e-4
    lr: float = 1.0
    epochs: int = 300
    seed: int = 0

    def __post_init__(self):
        _check_descent(self)


@dataclass(frozen=True)
class Poly2Config:
    l2: float = 1e-4
    lr: float = 1.0
    epochs: int = 400
    seed: int = 0

    def __post_init__(self):
        _check_descent(self)


@dataclass(frozen=True)
class FeedForwardConfig:
    proj_width: int = 64
    hidden: tuple[int, ...] = (128, 128)
    activation: str = "relu"
    lr: float = 1e-2
    momentum: float = 0.9
    epochs: int = 500
    l2: float = 0.0
    plateau_patience: int = 25
    plateau_rtol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        _check_descent(self)
        if self.proj_width < 1 or any(width < 1 for width in self.hidden):
            raise InputError(f"proj_width and hidden widths must be >= 1, got {self.proj_width}, {self.hidden}")


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    picked = probs[np.arange(labels.shape[0]), labels]
    return -float(np.mean(np.log(np.maximum(picked, 1e-300))))


def _weights(value, name: str, *shape) -> np.ndarray:
    """A finite float64 array of ``shape`` read from a model file; None matches any size >= 1."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != len(shape) or any(
        size < 1 or want not in (None, size) for size, want in zip(arr.shape, shape)
    ):
        expected = tuple("any" if want is None else want for want in shape)
        raise InputError(f"model weights {name!r} have shape {arr.shape}, expected {expected}")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"model weights {name!r} are not all finite")
    return arr


def _affine_marginals(logits_many, T: np.ndarray, V: np.ndarray, d1: int, d2: int) -> AdditiveDecomposition:
    """The exact EMAP of a scorer affine in each input side, from three ``logits_many`` calls.

    For such an ``f`` the grid's row means are ``f(T, v_bar)``, its column
    means ``f(t_bar, V)`` and its grand mean ``f(t_bar, v_bar)``: the
    partial-dependence functions under the empirical marginals.  The mean
    rows are fed as ``np.broadcast_to`` views, so memory stays O(N * d),
    and ``N_t`` may differ from ``N_v``.
    """
    T, V = check_widths(T, V, d1, d2)
    t_bar, v_bar = T.mean(axis=0), V.mean(axis=0)
    mu = logits_many(t_bar[np.newaxis], v_bar[np.newaxis])[0]
    tau = logits_many(T, np.broadcast_to(v_bar, (len(T), d2))) - mu
    phi = logits_many(np.broadcast_to(t_bar, (len(V), d1)), V) - mu
    return AdditiveDecomposition(tau=tau, phi=phi, mu=mu)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite loss is refused below, without warnings
def _fit_softmax_descent(
    forward, adjoint, num_params: int,
    labels: np.ndarray,
    num_classes: int,
    l2: float,
    lr: float,
    epochs: int,
):
    """Full-batch multinomial logistic regression with step halving.

    Logits are ``forward(w) + b``; ``adjoint`` is ``forward``'s transpose, e.g. ``X @ w`` and ``X.T @ g``.
    A step is committed only if it does not increase the regularized loss,
    so the committed loss sequence is non-increasing; on an increase the
    learning rate is halved and the step retried.  Starts from zero weights,
    which makes the result deterministic without any RNG.  Returns the
    weights, bias and the per-epoch loss history.
    """
    n = labels.shape[0]
    w = np.zeros((num_params, num_classes))
    b = np.zeros(num_classes)

    def loss_of(w_, b_):
        probs = _softmax(forward(w_) + b_)
        return _cross_entropy(probs, labels) + 0.5 * l2 * float(np.sum(w_ * w_)), probs

    loss, probs = loss_of(w, b)
    history = [loss]
    step = lr
    for _ in range(epochs):
        grad_logits = probs
        grad_logits[np.arange(n), labels] -= 1.0
        grad_logits /= n
        g_w = adjoint(grad_logits) + l2 * w
        g_b = grad_logits.sum(axis=0)
        committed = False
        while step > 1e-16:
            w_new = w - step * g_w
            b_new = b - step * g_b
            new_loss, new_probs = loss_of(w_new, b_new)
            if not np.isfinite(new_loss):
                raise NumericError("logistic training diverged to a non-finite loss")
            if new_loss <= loss + 1e-12:
                w, b, loss, probs = w_new, b_new, new_loss, new_probs
                history.append(loss)
                committed = True
                break
            step *= 0.5
        if not committed:
            break
    return w, b, history


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Additive scorer ``logits = w_t' t + (w_v' v + b)``."""

    w_t: np.ndarray
    w_v: np.ndarray
    b: np.ndarray
    config: dict = field(default_factory=dict)

    @property
    def num_classes(self) -> int:
        return self.b.shape[0]

    def logits_many(self, T: np.ndarray, V: np.ndarray) -> np.ndarray:
        T, V = check_pairs(T, V, self.w_t.shape[0], self.w_v.shape[0])
        return T @ self.w_t + V @ self.w_v + self.b

    def logits_grid(self, T: np.ndarray, V: np.ndarray) -> np.ndarray:
        # additive structure: each channel plane is an outer sum of unimodal scores
        T, V = check_widths(T, V, self.w_t.shape[0], self.w_v.shape[0])
        t_part = T @ self.w_t
        v_part = V @ self.w_v + self.b
        planes = np.empty((self.num_classes, len(T), len(V)))
        np.add(t_part.T[:, :, np.newaxis], v_part.T[:, np.newaxis, :], out=planes)
        return planes.transpose(1, 2, 0)

    def marginals(self, T: np.ndarray, V: np.ndarray) -> AdditiveDecomposition:
        return _affine_marginals(self.logits_many, T, V, self.w_t.shape[0], self.w_v.shape[0])

    def to_json_dict(self) -> dict:
        return {
            "kind": "linear",
            "w_t": self.w_t.tolist(),
            "w_v": self.w_v.tolist(),
            "b": self.b.tolist(),
            "config": dict(self.config),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "LinearModel":
        w_t = _weights(payload["w_t"], "w_t", None, None)
        classes = w_t.shape[1]
        return cls(
            w_t=w_t,
            w_v=_weights(payload["w_v"], "w_v", None, classes),
            b=_weights(payload["b"], "b", classes),
            config=dict(payload.get("config", {})),
        )


def train_linear(data: PairedDataset, cfg: LinearConfig | None = None) -> LinearModel:
    """Fit the additive linear baseline on the train split."""
    cfg = cfg or LinearConfig()
    train = data.subset("train")
    T, V, d1 = train.text, train.visual, train.d1
    w, b, _ = _fit_softmax_descent(
        lambda w: T @ w[:d1] + V @ w[d1:], lambda g: np.vstack([T.T @ g, V.T @ g]), d1 + train.d2,
        train.labels, data.num_classes, cfg.l2, cfg.lr, cfg.epochs)
    return LinearModel(w_t=w[:d1], w_v=w[d1:], b=b, config={**asdict(cfg), "kind": "linear"})


def _poly2_split(w: np.ndarray, d1: int, d2: int):
    """poly2's weight blocks ``w_t``, ``w_v`` and the cross weights ``w_x[a, b, c]``."""
    return w[:d1], w[d1 : d1 + d2], w[d1 + d2 :].reshape(d1, d2, -1)


def _poly2_logits(w: np.ndarray, T: np.ndarray, V: np.ndarray, block_cells: int = PAIR_BLOCK_CELLS) -> np.ndarray:
    """Bias-free poly2 logits ``t' w_t + v' w_v + t' w_x[:, :, c] v`` of paired rows; a row gets the same
    bits in any block of two or more rows (numpy scores a one-row block with another kernel), so the
    rows are cut into balanced blocks of at most ``block_cells`` temporary floats, none of one row."""
    w_t, w_v, w_x = _poly2_split(w, T.shape[1], V.shape[1])
    d1, d2, classes = w_x.shape
    # t_n' W_x for a block of rows is one gemm; its dot with each v_n one batched matmul
    n, rows = len(T), max(1, block_cells // (d2 * classes))
    bilinear = np.empty((n, classes))
    blocks = max(1, min(-(-n // rows), n // 2))  # at most `rows` rows per block, and at least two
    bounds = [n * k // blocks for k in range(blocks + 1)]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        block = slice(start, stop)
        t_forms = (T[block] @ w_x.reshape(d1, -1)).reshape(-1, d2, classes)
        bilinear[block] = np.matmul(V[block, np.newaxis, :], t_forms)[:, 0]
    return T @ w_t + V @ w_v + bilinear


def _poly2_adjoint(g: np.ndarray, T: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``_poly2_logits``'s transpose in ``w``; the cross block is one gemm over the products ``g_nc v_n``."""
    outer = (g[:, :, np.newaxis] * V[:, np.newaxis, :]).reshape(len(V), -1)  # class-major: 1.8x faster to fill
    cross = (T.T @ outer).reshape(T.shape[1], g.shape[1], V.shape[1]).transpose(0, 2, 1)
    return np.vstack([T.T @ g, V.T @ g, cross.reshape(-1, g.shape[1])])


@dataclass(frozen=True, eq=False)
class Poly2Model:
    """Logistic model over ``t``, ``v`` and all pairwise products ``t_a * v_b``.

    The cross term is a bilinear form, so the model can represent multiplicative cross-modal
    interactions exactly; training and ``logits_many`` score it with ``_poly2_logits``.
    """

    w: np.ndarray
    b: np.ndarray
    d1: int
    d2: int
    config: dict = field(default_factory=dict)

    @property
    def num_classes(self) -> int:
        return self.b.shape[0]

    def logits_many(self, T: np.ndarray, V: np.ndarray) -> np.ndarray:
        return _poly2_logits(self.w, *check_pairs(T, V, self.d1, self.d2)) + self.b

    def logits_grid(self, T: np.ndarray, V: np.ndarray) -> np.ndarray:
        """One gemm per class writes the bilinear term into its plane; the unimodal
        outer sum ``t + v`` is then added a block of rows at a time, so no
        temporary is as large as a plane."""
        T, V = check_widths(T, V, self.d1, self.d2)
        w_t, w_v, w_x = _poly2_split(self.w, self.d1, self.d2)
        t_part = T @ w_t
        v_part = V @ w_v + self.b
        planes = np.empty((self.num_classes, len(T), len(V)))
        rows = max(1, GRID_BLOCK_CELLS // len(V))
        for c, plane in enumerate(planes):
            np.matmul(T @ w_x[:, :, c], V.T, out=plane)
            for start in range(0, len(T), rows):
                plane[start : start + rows] += t_part[start : start + rows, c, np.newaxis] + v_part[:, c]
        return planes.transpose(1, 2, 0)

    def marginals(self, T: np.ndarray, V: np.ndarray) -> AdditiveDecomposition:
        return _affine_marginals(self.logits_many, T, V, self.d1, self.d2)

    def to_json_dict(self) -> dict:
        return {
            "kind": "poly2",
            "w": self.w.tolist(),
            "b": self.b.tolist(),
            "d1": self.d1,
            "d2": self.d2,
            "config": dict(self.config),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Poly2Model":
        d1, d2 = int(payload["d1"]), int(payload["d2"])
        if d1 < 1 or d2 < 1:
            raise InputError(f"poly2 feature widths must be >= 1, got d1={d1}, d2={d2}")
        w = _weights(payload["w"], "w", d1 + d2 + d1 * d2, None)
        return cls(
            w=w,
            b=_weights(payload["b"], "b", w.shape[1]),
            d1=d1,
            d2=d2,
            config=dict(payload.get("config", {})),
        )


def _train_poly2(data: PairedDataset, cfg: Poly2Config) -> Poly2Model:
    train = data.subset("train")
    T, V = train.text, train.visual
    w, b, _ = _fit_softmax_descent(
        lambda w: _poly2_logits(w, T, V, TRAIN_BLOCK_CELLS), lambda g: _poly2_adjoint(g, T, V),
        train.d1 + train.d2 + train.d1 * train.d2, train.labels, data.num_classes, cfg.l2, cfg.lr, cfg.epochs)
    return Poly2Model(
        w=w, b=b, d1=train.d1, d2=train.d2, config={**asdict(cfg), "kind": "poly2"}
    )


def _activation(name: str):
    """``(act, grad)``: an activation and its derivative; ``act(x, out=x)`` overwrites ``x``."""
    if name == "relu":
        return lambda x, out=None: np.maximum(x, 0.0, out=out), lambda x: x > 0.0
    if name == "gelu":
        from scipy.special import erf  # deferred so relu-only runs never import scipy

        def gelu(x, out=None):
            cdf = erf(x / np.sqrt(2.0))
            cdf += 1.0
            return np.multiply(0.5 * x, cdf, out=out)

        def gelu_grad(x):
            pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
            return 0.5 * (1.0 + erf(x / np.sqrt(2.0))) + x * pdf

        return gelu, gelu_grad
    raise InputError(f"unknown activation {name!r}")


def _split_first_layer(w1: np.ndarray):
    """``W1 = [Wa; Wb; Wc; Wd]`` as the weights ``(Wa - Wc, Wb + Wc, Wd)`` of ``t'``, ``v'`` and ``v' * t'``.

    ``[t'; v'; v' - t'; v' * t'] W1 + b1`` equals ``(v' * t') Wd + (v' (Wb + Wc) + b1) + t' (Wa - Wc)``,
    the one first-layer formula that training and scoring both sum in this order.
    """
    wa, wb, wc, wd = np.split(w1, 4)
    return wa - wc, wb + wc, wd


@dataclass(frozen=True, eq=False)
class FeedForwardModel:
    """Network over projected features ``[t'; v'; v' - t'; v' * t']``.

    Both inputs are first mapped by affine layers to a common width, then
    the comparison features feed a plain multi-layer network.  The
    elementwise product channel is what gives the family its capacity for
    multiplicative interactions.  Training (``_ffn_loss_and_grads``) runs
    the model's own ``_project`` and ``_head`` and back-propagates from the
    buffers ``_head`` fills, so it scores with the code ``logits_many`` and
    ``logits_grid`` run.  The first layer is one formula split by input side
    (``_split_first_layer``): the comparison features are never concatenated.
    """

    proj_t: np.ndarray
    proj_t_b: np.ndarray
    proj_v: np.ndarray
    proj_v_b: np.ndarray
    layers: tuple
    activation: str = "relu"
    config: dict = field(default_factory=dict)

    @property
    def num_classes(self) -> int:
        return self.layers[-1][1].shape[0]

    def _project(self, T: np.ndarray, V: np.ndarray, out=(None, None)):
        T, V = check_widths(T, V, self.proj_t.shape[0], self.proj_v.shape[0])
        tp, vp = np.matmul(T, self.proj_t, out=out[0]), np.matmul(V, self.proj_v, out=out[1])
        return np.add(tp, self.proj_t_b, out=tp), np.add(vp, self.proj_v_b, out=vp)

    def _buffers(self, n_t: int, n_v: int):
        """Fresh arrays for ``_head`` to write: ``(t_part, v_part, prod, pre, post)``."""
        pre = [np.empty((n_v, w.shape[1])) for w, _ in self.layers]
        parts = [np.empty((n, pre[0].shape[1])) for n in (n_t, n_v)]
        return *parts, np.empty((n_v, self.proj_t.shape[1])), pre, [np.empty_like(z) for z in pre[:-1]]

    def _head(self, tp: np.ndarray, vp: np.ndarray, buffers=None):
        """A scorer of projected features whose first layer is ``_split_first_layer``'s formula.

        The two terms that depend on one side each are computed here once
        per item.  Returns ``(score, prod, pre, post)``: ``score(rows)`` gives
        the logits of the text items ``rows`` against ``vp``, row-paired for a
        slice of all items, or one text item against every visual item for an
        integer.  It sums the terms in that formula's order and writes into
        buffers of ``len(vp)`` rows that the next call overwrites: ``prod``
        holds ``v' * t'``, ``pre[k]`` layer k's output (``pre[-1]`` the
        logits) and ``post[k] = act(pre[k])``, which training back-propagates
        through.  The buffers are ``buffers``, or fresh ``_buffers`` if None.
        """
        act, _ = _activation(self.activation)
        (w1, b1), rest = self.layers[0], self.layers[1:]
        w_t, w_v, w_prod = _split_first_layer(w1)
        # one buffer per layer for every call: fresh per-row arrays made a process's first
        # N = 2000 grid about 1.5x slower (glibc mmap churn; 2 vCPU, BLAS on 1 thread)
        t_part, v_part, prod, pre, post = buffers or self._buffers(len(tp), len(vp))
        np.matmul(tp, w_t, out=t_part)
        np.add(np.matmul(vp, w_v, out=v_part), b1, out=v_part)

        def score(rows) -> np.ndarray:
            z = np.matmul(np.multiply(vp, tp[rows], out=prod), w_prod, out=pre[0])
            z += v_part
            z += t_part[rows]
            for (w, b), a, out in zip(rest, post, pre[1:]):
                z = np.matmul(act(z, out=a), w, out=out)
                z += b
            return z

        return score, prod, pre, post

    def logits_many(self, T: np.ndarray, V: np.ndarray) -> np.ndarray:
        check_pairs(T, V, self.proj_t.shape[0], self.proj_v.shape[0])
        return self._head(*self._project(T, V))[0](slice(None))

    def logits_grid(self, T: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Both sides projected and their first-layer parts computed once; then
        one gemm per layer per text row, that row against all of V.  Each row
        equals ``logits_many`` of the text item tiled against V bit for bit on a
        1 x 1 grid and whenever both sides hold at least two items.  With one
        item on only one side, numpy takes another BLAS kernel for the one-row
        products and the two differ by up to 3.6e-15."""
        tp, vp = self._project(T, V)
        score = self._head(tp, vp)[0]
        planes = np.empty((self.num_classes, tp.shape[0], vp.shape[0]))
        for i in range(tp.shape[0]):
            planes[:, i, :] = score(i).T
        return planes.transpose(1, 2, 0)

    def marginals(self, T: np.ndarray, V: np.ndarray) -> AdditiveDecomposition | None:
        """Exact without hidden layers, where the logits are affine in each side; else None."""
        flat = len(self.layers) == 1
        return _affine_marginals(self.logits_many, T, V, len(self.proj_t), len(self.proj_v)) if flat else None

    def to_json_dict(self) -> dict:
        return {
            "kind": "feedforward",
            "proj_t": self.proj_t.tolist(),
            "proj_t_b": self.proj_t_b.tolist(),
            "proj_v": self.proj_v.tolist(),
            "proj_v_b": self.proj_v_b.tolist(),
            "layers": [[w.tolist(), b.tolist()] for w, b in self.layers],
            "activation": self.activation,
            "config": dict(self.config),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "FeedForwardModel":
        proj_t = _weights(payload["proj_t"], "proj_t", None, None)
        width = proj_t.shape[1]
        if not payload["layers"]:
            raise InputError("a feed-forward model needs at least one layer")
        layers, fan_in = [], 4 * width  # the comparison features [t'; v'; v' - t'; v' * t']
        for k, (w, b) in enumerate(payload["layers"]):
            w = _weights(w, f"layers[{k}] weight", fan_in, None)
            fan_in = w.shape[1]
            layers.append((w, _weights(b, f"layers[{k}] bias", fan_in)))
        activation = payload.get("activation", "relu")
        _activation(activation)
        return cls(
            proj_t=proj_t,
            proj_t_b=_weights(payload["proj_t_b"], "proj_t_b", width),
            proj_v=_weights(payload["proj_v"], "proj_v", None, width),
            proj_v_b=_weights(payload["proj_v_b"], "proj_v_b", width),
            layers=tuple(layers),
            activation=activation,
            config=dict(payload.get("config", {})),
        )


def _ffn_model(params: list, activation: str, **fields) -> FeedForwardModel:
    # params run proj_t, proj_t_b, proj_v, proj_v_b, then each layer's weight and bias
    return FeedForwardModel(*params[:4], tuple(zip(params[4::2], params[5::2])), activation, **fields)


def _ffn_loss_and_grads(params: list, T: np.ndarray, V: np.ndarray, y: np.ndarray, activation: str, l2: float,
                        buffers=None):
    """Mean cross-entropy plus ``l2 / 2`` times each weight matrix's squared norm, and its gradients.

    With ``g_t = t'^T delta``, ``g_v = v'^T delta`` and ``g_p = (v' * t')^T delta`` at the first
    layer, ``dW1 = [g_t; g_v; g_v - g_t; g_p]``.  Both passes write into ``buffers``: ``t'``, ``v'`` and
    ``_buffers``' arrays (fresh if None), the backward pass into those the forward is done with.
    """
    _, act_grad = _activation(activation)
    model = _ffn_model(params, activation)
    tp, vp, *head = buffers or [None, None, *model._buffers(len(T), len(V))]
    tp, vp = model._project(T, V, out=(tp, vp))
    score, prod, pre, post = model._head(tp, vp, head)
    probs = _softmax(score(slice(None)))
    loss = _cross_entropy(probs, y)
    if l2 > 0.0:
        loss += 0.5 * l2 * sum(float(np.sum(p * p)) for p in params[::2])
    grads = [None] * len(params)
    delta = probs
    delta[np.arange(len(y)), y] -= 1.0
    delta /= len(y)
    for k in reversed(range(1, len(pre))):
        grads[4 + 2 * k : 6 + 2 * k] = post[k - 1].T @ delta, delta.sum(axis=0)
        delta = np.matmul(delta, params[4 + 2 * k].T, out=post[k - 1])  # post[k - 1] is spent
        delta *= act_grad(pre[k - 1])
    w_t, w_v, w_prod = _split_first_layer(params[4])
    g_t, g_v = tp.T @ delta, vp.T @ delta
    grads[4:6] = np.vstack([g_t, g_v, g_v - g_t, prod.T @ delta]), delta.sum(axis=0)
    d_prod = np.matmul(delta, w_prod.T, out=prod)
    d_tp, d_vp = np.multiply(d_prod, vp, out=vp), np.multiply(d_prod, tp, out=tp)  # over the spent v', t'
    d_tp += np.matmul(delta, w_t.T, out=prod)  # prod is spent too once both products are taken
    d_vp += np.matmul(delta, w_v.T, out=prod)
    grads[:4] = T.T @ d_tp, d_tp.sum(axis=0), V.T @ d_vp, d_vp.sum(axis=0)
    if l2 > 0.0:
        grads[::2] = [g + l2 * p for g, p in zip(grads[::2], params[::2])]
    return loss, grads


@np.errstate(over="ignore", invalid="ignore")  # a non-finite loss is refused below, without warnings
def _train_feedforward(data: PairedDataset, cfg: FeedForwardConfig) -> FeedForwardModel:
    train = data.subset("train")
    h = cfg.proj_width
    rng = np.random.default_rng(cfg.seed)

    def init(fan_in, fan_out):
        return rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)

    params = [init(train.d1, h), np.zeros(h), init(train.d2, h), np.zeros(h)]
    widths = [4 * h, *cfg.hidden, data.num_classes]
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        params.append(init(fan_in, fan_out))
        params.append(np.zeros(fan_out))
    velocity = [np.zeros_like(p) for p in params]
    n = train.n
    buffers = [np.empty((n, h)), np.empty((n, h)), *_ffn_model(params, cfg.activation)._buffers(n, n)]

    lr, best_loss, stall = cfg.lr, np.inf, 0
    for _ in range(cfg.epochs):
        loss, grads = _ffn_loss_and_grads(
            params, train.text, train.visual, train.labels, cfg.activation, cfg.l2, buffers)
        if not np.isfinite(loss):
            raise NumericError("feed-forward training diverged to a non-finite loss")
        if loss < best_loss * (1.0 - cfg.plateau_rtol):
            best_loss, stall = loss, 0
        else:
            stall += 1
            if stall >= cfg.plateau_patience:
                lr, stall = lr * 0.5, 0
        for i, g in enumerate(grads):
            velocity[i] *= cfg.momentum
            velocity[i] -= lr * g
            params[i] += velocity[i]

    config = {**asdict(cfg), "hidden": list(cfg.hidden), "kind": "feedforward"}
    return _ffn_model(params, cfg.activation, config=config)


def train_interactive(data: PairedDataset, kind: str, cfg=None):
    """Train an interaction-capable model: poly2 or feedforward (AdaBoost: ``boosting.train_adaboost``)."""
    if kind == "poly2":
        return _train_poly2(data, cfg or Poly2Config())
    if kind == "feedforward":
        return _train_feedforward(data, cfg or FeedForwardConfig())
    raise InputError(f"unknown interactive model kind {kind!r}")
