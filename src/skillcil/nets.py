"""Dense MLP base policy, low-rank adapters, analytic gradients, Adam.

Everything is float64 numpy with hand-written backpropagation: the nets
are small enough that an autodiff engine would be overkill, and explicit
gradients make the finite-difference oracle in the tests meaningful.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, EmptyBatchError, NumericFailureError
from .rngs import rng_for


@dataclass
class Linear:
    w: np.ndarray  # (d_out, d_in)
    b: np.ndarray  # (d_out,)


@dataclass
class BasePolicy:
    layers: list
    activation: str = "relu"

    @property
    def in_dim(self):
        return self.layers[0].w.shape[1]

    @property
    def out_dim(self):
        return self.layers[-1].w.shape[0]


@dataclass
class LoraLayer:
    a: np.ndarray  # (rank, d_in)
    b: np.ndarray  # (d_out, rank)


@dataclass
class LoraAdapter:
    layers: list
    rank: int
    scale: float = 1.0


def init_mlp(dims, seed) -> BasePolicy:
    """He-initialized MLP; dims = (in, hidden..., out)."""
    rng = rng_for(seed, "mlp-init")
    layers = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        w = rng.standard_normal((d_out, d_in)) * np.sqrt(2.0 / d_in)
        layers.append(Linear(w=w, b=np.zeros(d_out)))
    return BasePolicy(layers=layers)


def init_adapter(base: BasePolicy, rank: int, seed,
                 a_sigma: float = 0.02) -> LoraAdapter:
    """Fresh adapter: A ~ N(0, a_sigma^2), B = 0, so the delta is exactly zero."""
    rng = rng_for(seed, "lora-init")
    layers = []
    for lin in base.layers:
        d_out, d_in = lin.w.shape
        layers.append(LoraLayer(
            a=rng.normal(0.0, a_sigma, (rank, d_in)),
            b=np.zeros((d_out, rank)),
        ))
    return LoraAdapter(layers=layers, rank=rank, scale=1.0)


def clone_adapter(adapter: LoraAdapter) -> LoraAdapter:
    return copy.deepcopy(adapter)


def merge(base: BasePolicy, adapter: LoraAdapter) -> BasePolicy:
    """Fold the adapter deltas into a standalone policy."""
    layers = []
    for lin, lo in zip(base.layers, adapter.layers):
        layers.append(Linear(w=lin.w + adapter.scale * lo.b @ lo.a,
                             b=lin.b.copy()))
    return BasePolicy(layers=layers, activation=base.activation)


def _effective_weight(lin: Linear, lo, scale: float) -> np.ndarray:
    if lo is None:
        return lin.w
    return lin.w + scale * lo.b @ lo.a


def forward(base: BasePolicy, adapter, x: np.ndarray) -> np.ndarray:
    """ReLU MLP forward; no activation on the output layer.

    x may be (d_in,) or (n, d_in).
    """
    single = x.ndim == 1
    h = np.atleast_2d(x)
    if h.shape[1] != base.in_dim:
        raise DimensionError(
            f"input dim {h.shape[1]} != policy dim {base.in_dim}")
    n_layers = len(base.layers)
    for i, lin in enumerate(base.layers):
        lo = adapter.layers[i] if adapter is not None else None
        w = _effective_weight(lin, lo, adapter.scale if adapter else 1.0)
        h = h @ w.T + lin.b
        if i < n_layers - 1:
            h = np.maximum(h, 0.0)
    return h[0] if single else h


def imitation_loss(base: BasePolicy, adapter, x: np.ndarray,
                   actions: np.ndarray) -> float:
    """Mean squared L2 distance between predicted and expert actions."""
    x = np.atleast_2d(x)
    actions = np.atleast_2d(actions)
    if x.shape[0] == 0:
        raise EmptyBatchError("empty batch")
    pred = forward(base, adapter, x)
    return float(np.mean(np.sum((pred - actions) ** 2, axis=1)))


def grad(base: BasePolicy, adapter, x: np.ndarray, actions: np.ndarray,
         trainable: str = "adapter"):
    """Analytic gradients of the imitation loss.

    trainable="adapter": returns per-layer [dA1, dB1, dA2, dB2, ...].
    trainable="base":    returns per-layer [dW1, db1, dW2, db2, ...];
    the adapter (if any) is treated as a frozen delta.
    Returns (loss, grads).
    """
    if trainable not in ("adapter", "base"):
        raise ValueError(f"unknown trainable set {trainable!r}")
    if trainable == "adapter" and adapter is None:
        raise ValueError("adapter-only mode requires an adapter")
    x = np.atleast_2d(x)
    actions = np.atleast_2d(actions)
    n = x.shape[0]
    if n == 0:
        raise EmptyBatchError("empty batch")

    n_layers = len(base.layers)
    scale = adapter.scale if adapter is not None else 1.0
    weights = []  # effective weight of each layer
    inputs = []   # input to each layer
    pre = []      # pre-activation of each layer
    h = x
    for i, lin in enumerate(base.layers):
        lo = adapter.layers[i] if adapter is not None else None
        w = _effective_weight(lin, lo, scale)
        weights.append(w)
        inputs.append(h)
        z = h @ w.T + lin.b
        pre.append(z)
        h = np.maximum(z, 0.0) if i < n_layers - 1 else z
    delta = h - actions
    loss = float(np.mean(np.sum(delta ** 2, axis=1)))

    grads = [None] * (2 * n_layers)
    dz = 2.0 * delta / n
    for i in reversed(range(n_layers)):
        lo = adapter.layers[i] if adapter is not None else None
        dw_eff = dz.T @ inputs[i]
        if trainable == "base":
            grads[2 * i] = dw_eff
            grads[2 * i + 1] = dz.sum(axis=0)
        else:
            grads[2 * i] = scale * lo.b.T @ dw_eff   # dA
            grads[2 * i + 1] = scale * dw_eff @ lo.a.T  # dB
        if i > 0:
            dh = dz @ weights[i]
            dz = dh * (pre[i - 1] > 0)
    return loss, grads


def adapter_params(adapter: LoraAdapter):
    out = []
    for lo in adapter.layers:
        out.extend([lo.a, lo.b])
    return out


def base_params(base: BasePolicy):
    out = []
    for lin in base.layers:
        out.extend([lin.w, lin.b])
    return out


def set_adapter_params(adapter: LoraAdapter, params):
    for i, lo in enumerate(adapter.layers):
        lo.a = params[2 * i]
        lo.b = params[2 * i + 1]


def set_base_params(base: BasePolicy, params):
    for i, lin in enumerate(base.layers):
        lin.w = params[2 * i]
        lin.b = params[2 * i + 1]


def param_count(obj) -> int:
    if isinstance(obj, BasePolicy):
        return sum(lin.w.size + lin.b.size for lin in obj.layers)
    if isinstance(obj, LoraAdapter):
        return sum(lo.a.size + lo.b.size for lo in obj.layers)
    raise TypeError(f"cannot count parameters of {type(obj)!r}")


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def adam_init(params, lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    return AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps,
                     m=[np.zeros_like(p) for p in params],
                     v=[np.zeros_like(p) for p in params])


def adam_step(state: AdamState, params, grads):
    """One bias-corrected Adam update; returns (state', new params).

    Inputs are not mutated: moments and parameters are rebuilt, so calling
    twice from the same state gives identical results.
    """
    t = state.step + 1
    new_m, new_v, new_p = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m2 = state.beta1 * m + (1 - state.beta1) * g
        v2 = state.beta2 * v + (1 - state.beta2) * g * g
        m_hat = m2 / (1 - state.beta1 ** t)
        v_hat = v2 / (1 - state.beta2 ** t)
        new_m.append(m2)
        new_v.append(v2)
        new_p.append(p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps))
    out = AdamState(lr=state.lr, beta1=state.beta1, beta2=state.beta2,
                    eps=state.eps, step=t, m=new_m, v=new_v)
    return out, new_p


def batches(x, actions, batch_size: int, rng):
    """Sampler of uniform (x, actions) batches drawn with replacement."""
    n = x.shape[0]
    if n == 0:
        raise EmptyBatchError("no transitions to train on")

    def sample():
        idx = rng.integers(0, n, size=min(batch_size, n))
        return x[idx], actions[idx]
    return sample


def train(base: BasePolicy, adapter, sample, steps: int, lr: float = 1e-3,
          penalty=None) -> float:
    """Adam on the adapter, or on the whole base when adapter is None.

    sample() returns the next (x, actions) batch.  penalty, if given, maps
    the current parameter list to (penalty loss, penalty grads) added to
    the imitation gradients; a zero penalty contributes exact zeros, leaving
    the trajectory bit-identical to plain training.  Returns the loss of the
    last batch (NaN when steps is 0).
    """
    whole_base = adapter is None
    trainable = "base" if whole_base else "adapter"
    params = base_params(base) if whole_base else adapter_params(adapter)
    opt = adam_init(params, lr=lr)
    loss = float("nan")
    for _ in range(steps):
        bx, ba = sample()
        loss, grads = grad(base, adapter, bx, ba, trainable=trainable)
        if penalty is not None:
            pen, pgrads = penalty(params)
            loss += pen
            grads = [g + pg for g, pg in zip(grads, pgrads)]
        if not np.isfinite(loss):
            raise NumericFailureError(f"{trainable} training diverged")
        opt, params = adam_step(opt, params, grads)
        if whole_base:
            set_base_params(base, params)
        else:
            set_adapter_params(adapter, params)
    return loss


# --- checkpointing ---

_CKPT_VERSION = 1


def save_policy(base: BasePolicy, path):
    doc = {
        "version": _CKPT_VERSION,
        "activation": base.activation,
        "layers": [{"w": lin.w.tolist(), "b": lin.b.tolist()}
                   for lin in base.layers],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_policy(path) -> BasePolicy:
    with open(path) as fh:
        doc = json.load(fh)
    layers = [Linear(w=np.array(d["w"], dtype=float),
                     b=np.array(d["b"], dtype=float))
              for d in doc["layers"]]
    return BasePolicy(layers=layers, activation=doc["activation"])
