"""Minimal dense-network substrate for the dispatch agent.

Plain numpy multilayer perceptrons (tanh hidden layers, identity output)
with hand-written reverse-mode gradients, a diagonal-Gaussian policy head
with state-independent log-std, a scalar value head, an Adam optimizer, and
a JSON checkpoint format shared by training, evaluation and explanation.

Everything here is deterministic for fixed inputs and RNG state; gradient
correctness against central finite differences is the load-bearing test.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .env import N_ACTIONS, N_FEATURES

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0

CHECKPOINT_FORMAT = "mgrl-checkpoint"
CHECKPOINT_VERSION = 1

LOG_2PI = math.log(2.0 * math.pi)


class CheckpointError(ValueError):
    """Raised when a checkpoint file has the wrong format or shapes."""


# ---------------------------------------------------------------------------
# MLP core


@dataclass
class Mlp:
    """Weights (n_in, n_out) and biases per layer; tanh hiddens, linear out."""

    weights: list
    biases: list

    @property
    def sizes(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]


def _orthogonal(n_in: int, n_out: int, rng: np.random.Generator,
                gain: float) -> np.ndarray:
    a = rng.standard_normal((max(n_in, n_out), min(n_in, n_out)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if n_in < n_out:
        q = q.T
    # C order regardless of the transpose path above, so a checkpoint
    # round-trip reproduces forward passes bit for bit.
    return np.ascontiguousarray(gain * q[:n_in, :n_out])


def mlp_init(sizes, rng: np.random.Generator, out_gain: float = 1.0) -> Mlp:
    """Orthogonal-style init: gain sqrt(2) on hiddens, out_gain on the head."""
    weights, biases = [], []
    for i, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        gain = out_gain if i == len(sizes) - 2 else math.sqrt(2.0)
        weights.append(_orthogonal(n_in, n_out, rng, gain))
        biases.append(np.zeros(n_out))
    return Mlp(weights=weights, biases=biases)


def mlp_forward(m: Mlp, x: np.ndarray, outs: list | None = None,
                scratch: list | None = None) -> tuple[np.ndarray, list]:
    """Forward pass on a (B, n_in) batch; cache holds each layer's input.

    With ``outs`` (one array of at least B rows per layer) and ``scratch``
    (flat arrays of at least B x the widest layer, given together) layer i
    writes its output into the first B rows of ``outs[i]`` and allocates
    nothing; without them each layer output is a fresh array.
    """
    inputs = [x]
    h = x
    last = len(m.weights) - 1
    for i, (w, b) in enumerate(zip(m.weights, m.biases)):
        if outs is None:
            h = h @ w  # a fresh array, so the bias and tanh can go in place
            h += b
        else:
            h = np.matmul(h, w, out=outs[i][:len(x)])
            # Tile the bias first: a broadcast add allocates an iteration
            # buffer of up to 64 KiB inside NumPy.
            bias = _rows(scratch, 0, *h.shape)
            np.copyto(bias, b)
            h += bias
        if i < last:
            np.tanh(h, out=h)
        inputs.append(h)
    return h, inputs


def mlp_backward(m: Mlp, cache: list, gy: np.ndarray,
                 grads: list | None = None, scratch: list | None = None,
                 input_grad: bool = True
                 ) -> tuple[list, list, np.ndarray | None]:
    """Exact reverse-mode pass: returns (weight grads, bias grads, input grad).

    ``grads`` ([*weight grads, *bias grads], shaped like the parameters)
    receives the parameter gradients, and ``scratch`` (three flat arrays of
    at least B x the widest layer) the backpropagated gradient and tanh';
    without them fresh arrays are allocated.  With ``input_grad``
    False the layer-0 input gradient is skipped and returned as None.
    """
    n_layers = len(m.weights)
    gw = [None] * n_layers if grads is None else grads[:n_layers]
    gb = [None] * n_layers if grads is None else grads[n_layers:]
    n = len(gy)
    g = gy
    for i in range(n_layers - 1, -1, -1):
        gw[i] = np.matmul(cache[i].T, g, out=gw[i])
        gb[i] = np.sum(g, axis=0, out=gb[i])
        if i == 0 and not input_grad:
            return gw, gb, None
        width = m.weights[i].shape[0]
        g = np.matmul(g, m.weights[i].T, out=_rows(scratch, i % 2, n, width))
        if i > 0:  # tanh' through the hidden output
            d = np.square(cache[i], out=_rows(scratch, 2, n, width))
            np.subtract(1.0, d, out=d)
            g *= d
    return gw, gb, g


def _rows(scratch: list | None, j: int, n: int, width: int):
    """(n, width) C-order view at the front of scratch[j]; None allocates."""
    if scratch is None:
        return None
    return scratch[j][:n * width].reshape(n, width)


# ---------------------------------------------------------------------------
# Actor / critic heads


@dataclass
class GaussianPolicy:
    """Actor: MLP trunk from features to action means plus a free log-std
    vector (clamped to [LOG_STD_MIN, LOG_STD_MAX] wherever it is used).

    obs_mean/obs_scale give the fixed affine input normalization; they are
    part of the persisted parameters so evaluation and explanation see the
    same function of raw physical features.
    """

    trunk: Mlp
    log_std: np.ndarray
    obs_mean: np.ndarray
    obs_scale: np.ndarray

    def clamped_log_std(self) -> np.ndarray:
        return np.clip(self.log_std, LOG_STD_MIN, LOG_STD_MAX)


@dataclass
class ValueNet:
    """Critic: MLP trunk to a single scalar, same input normalization."""

    net: Mlp
    obs_mean: np.ndarray
    obs_scale: np.ndarray


def make_policy(n_features: int, n_actions: int, hidden, rng,
                obs_mean, obs_scale,
                init_log_std: float = 0.0) -> GaussianPolicy:
    sizes = [n_features, *hidden, n_actions]
    return GaussianPolicy(
        trunk=mlp_init(sizes, rng, out_gain=0.01),
        log_std=np.full(n_actions, float(init_log_std)),
        obs_mean=np.array(obs_mean, dtype=np.float64).reshape(n_features),
        obs_scale=np.array(obs_scale, dtype=np.float64).reshape(n_features))


def make_value(n_features: int, hidden, rng, obs_mean, obs_scale) -> ValueNet:
    sizes = [n_features, *hidden, 1]
    return ValueNet(
        net=mlp_init(sizes, rng, out_gain=1.0),
        obs_mean=np.array(obs_mean, dtype=np.float64).reshape(n_features),
        obs_scale=np.array(obs_scale, dtype=np.float64).reshape(n_features))


def normalize(net: GaussianPolicy | ValueNet, x: np.ndarray) -> np.ndarray:
    """The network's input: raw state features under its fixed affine map."""
    return (x - net.obs_mean) / net.obs_scale


def _net_input(net: GaussianPolicy | ValueNet, x: np.ndarray) -> np.ndarray:
    """A (B, n_features) batch of raw states, checked and normalized."""
    if x.ndim != 2:
        raise ValueError(f"need a (B, n_features) state batch, got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite state features")
    return normalize(net, x)


def forward_policy(p: GaussianPolicy, x: np.ndarray) -> np.ndarray:
    """(B, n_actions) action means for a (B, n_features) state batch."""
    return mlp_forward(p.trunk, _net_input(p, x))[0]


def forward_value(v: ValueNet, x: np.ndarray) -> np.ndarray:
    """(B,) critic estimates for a (B, n_features) state batch."""
    return mlp_forward(v.net, _net_input(v, x))[0][:, 0]


def gaussian_log_prob(mean: np.ndarray, log_std: np.ndarray,
                      a: np.ndarray) -> np.ndarray:
    """Diagonal-Gaussian log density of pre-clip actions, per batch row."""
    z = (a - mean) / np.exp(log_std)
    return -0.5 * (z ** 2).sum(axis=-1) - log_std.sum() \
        - 0.5 * mean.shape[-1] * LOG_2PI


def gaussian_entropy(log_std: np.ndarray) -> float:
    return float(log_std.sum() + 0.5 * len(log_std) * (1.0 + LOG_2PI))


def sample_action(p: GaussianPolicy, x: np.ndarray, z: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Actions for a (B, n_features) state batch and (B, n_actions)
    standard normal draws ``z``.

    Returns (action, preclip, log_prob): the draw mean + exp(log_std) * z
    clipped to [-1, 1] for the environment, the draw itself and its
    (B,) log-density, which refers to the pre-clip draw.
    """
    mean = forward_policy(p, x)
    log_std = p.clamped_log_std()
    preclip = mean + np.exp(log_std) * z
    return (np.clip(preclip, -1.0, 1.0), preclip,
            gaussian_log_prob(mean, log_std, preclip))


# ---------------------------------------------------------------------------
# Parameter flattening shared by the optimizer and checkpoints

def policy_params(p: GaussianPolicy) -> list:
    """Live parameter arrays of the actor, in a fixed order."""
    return [*p.trunk.weights, *p.trunk.biases, p.log_std]


def value_params(v: ValueNet) -> list:
    return [*v.net.weights, *v.net.biases]


def flat_views(flat: np.ndarray, like: list) -> list:
    """Consecutive views into a flat vector, shaped like the arrays of like."""
    views, lo = [], 0
    for a in like:
        views.append(flat[lo:lo + a.size].reshape(a.shape))
        lo += a.size
    return views


def pack_params(policy: GaussianPolicy, value: ValueNet) -> np.ndarray:
    """Move both networks' parameters into one flat vector and return it.

    Every weight, bias and the log-std become views into the vector, in
    ``policy_params + value_params`` order, so those lists stay live and
    one vector operation updates all of them.
    """
    params = policy_params(policy) + value_params(value)
    flat = np.concatenate([a.ravel() for a in params])
    views = iter(flat_views(flat, params))
    policy.trunk.weights = [next(views) for _ in policy.trunk.weights]
    policy.trunk.biases = [next(views) for _ in policy.trunk.biases]
    policy.log_std = next(views)
    value.net.weights = [next(views) for _ in value.net.weights]
    value.net.biases = [next(views) for _ in value.net.biases]
    return flat


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Moments of one flat parameter vector, plus two scratch vectors of
    its size so that a step allocates nothing."""

    lr: float
    m: np.ndarray
    v: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0


def adam_init(theta: np.ndarray, lr: float) -> AdamState:
    return AdamState(lr=lr, m=np.zeros_like(theta), v=np.zeros_like(theta),
                     scratch=(np.empty_like(theta), np.empty_like(theta)))


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """Standard bias-corrected Adam update, applied to theta in place."""
    if not theta.shape == grad.shape == state.m.shape:
        raise ValueError(f"gradient shape {grad.shape} and Adam state shape "
                         f"{state.m.shape} must match parameter shape "
                         f"{theta.shape}")
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    m, v, (t, u) = state.m, state.v, state.scratch
    np.subtract(grad, m, out=t)  # m += (1 - b1) * (g - m)
    t *= 1.0 - b1
    m += t
    np.multiply(grad, grad, out=t)  # v += (1 - b2) * (g * g - v)
    t -= v
    t *= 1.0 - b2
    v += t
    np.divide(m, bc1, out=t)  # theta -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
    t *= state.lr
    np.divide(v, bc2, out=u)
    np.sqrt(u, out=u)
    u += state.eps
    t /= u
    theta -= t


# ---------------------------------------------------------------------------
# Checkpoints


def _mlp_to_json(m: Mlp) -> dict:
    return {"sizes": m.sizes,
            "weights": [w.tolist() for w in m.weights],
            "biases": [b.tolist() for b in m.biases]}


def _floats(name: str, value, shape: tuple) -> np.ndarray:
    """A stored field as a finite float64 array of the given shape."""
    try:
        a = np.array(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise CheckpointError(f"{name} is not a rectangular array of "
                              f"numbers") from None
    if a.shape != shape:
        raise CheckpointError(f"{name} has shape {a.shape}; the stored "
                              f"sizes give {shape}")
    if not np.all(np.isfinite(a)):
        raise CheckpointError(f"{name} holds a non-finite value")
    return a


def _mlp_from_json(d: dict, name: str) -> tuple[Mlp, np.ndarray, np.ndarray]:
    """A net's layers and input normalization, checked against the stored
    layer sizes."""
    if not isinstance(d, dict):
        raise CheckpointError(f"{name} is not an object")
    sizes = d["sizes"]
    if not (isinstance(sizes, list) and all(type(k) is int for k in sizes)):
        raise CheckpointError(f"{name}.sizes is not a list of integers")
    for key in ("weights", "biases"):
        if not isinstance(d[key], list):
            raise CheckpointError(f"{name}.{key} is not a list")
    shapes = list(zip(sizes[:-1], sizes[1:]))
    if not len(d["weights"]) == len(d["biases"]) == len(shapes) > 0:
        raise CheckpointError(f"{name} needs one weight matrix and one bias "
                              f"per layer of the stored sizes {sizes}")
    m = Mlp(weights=[_floats(f"{name}.weights[{i}]", w, s)
                     for i, (w, s) in enumerate(zip(d["weights"], shapes))],
            biases=[_floats(f"{name}.biases[{i}]", b, s[1:])
                    for i, (b, s) in enumerate(zip(d["biases"], shapes))])
    obs_mean, obs_scale = (_floats(f"{name}.{key}", d[key], (sizes[0],))
                           for key in ("obs_mean", "obs_scale"))
    if np.any(obs_scale <= 0.0):
        raise CheckpointError(f"{name}.obs_scale holds a non-positive value")
    return m, obs_mean, obs_scale


def save_checkpoint(policy: GaussianPolicy, value: ValueNet,
                    path: str | os.PathLike) -> None:
    """Persist actor and critic as JSON (row-major arrays, exact floats)."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "policy": {**_mlp_to_json(policy.trunk),
                   "log_std": policy.log_std.tolist(),
                   "obs_mean": policy.obs_mean.tolist(),
                   "obs_scale": policy.obs_scale.tolist()},
        "value": {**_mlp_to_json(value.net),
                  "obs_mean": value.obs_mean.tolist(),
                  "obs_scale": value.obs_scale.tolist()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_checkpoint(path: str | os.PathLike
                    ) -> tuple[GaussianPolicy, ValueNet]:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version "
                              f"{doc.get('version')}")
    try:
        pd, vd = doc["policy"], doc["value"]
        trunk, p_mean, p_scale = _mlp_from_json(pd, "policy")
        net, v_mean, v_scale = _mlp_from_json(vd, "value")
        # The critic's input width is free: only the actor is pinned to
        # the environment's features and actions.
        if (trunk.sizes[0], trunk.sizes[-1]) != (N_FEATURES, N_ACTIONS):
            raise CheckpointError(f"policy.sizes {trunk.sizes} does not map "
                                  f"{N_FEATURES} features to {N_ACTIONS} "
                                  f"actions")
        if net.sizes[-1] != 1:
            raise CheckpointError(f"value.sizes {net.sizes} does not end in "
                                  f"one output")
        log_std = _floats("policy.log_std", pd["log_std"], (N_ACTIONS,))
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing field {exc}") from None
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return (GaussianPolicy(trunk, log_std, p_mean, p_scale),
            ValueNet(net, v_mean, v_scale))
