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
from dataclasses import dataclass, field

import numpy as np

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


def _as_batch(x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def mlp_forward(m: Mlp, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Forward pass on a (B, n_in) batch; cache holds each layer's input."""
    inputs = [x]
    h = x
    last = len(m.weights) - 1
    for i, (w, b) in enumerate(zip(m.weights, m.biases)):
        h = h @ w  # a fresh array, so the bias and tanh can go in place
        h += b
        if i < last:
            np.tanh(h, out=h)
        inputs.append(h)
    return h, inputs


def mlp_backward(m: Mlp, cache: list, gy: np.ndarray
                 ) -> tuple[list, list, np.ndarray]:
    """Exact reverse-mode pass: returns (weight grads, bias grads, input grad)."""
    gw = [None] * len(m.weights)
    gb = [None] * len(m.biases)
    g = gy
    for i in range(len(m.weights) - 1, -1, -1):
        gw[i] = cache[i].T @ g
        gb[i] = g.sum(axis=0)
        g = g @ m.weights[i].T
        if i > 0:
            g = g * (1.0 - cache[i] ** 2)  # tanh' through the hidden output
    return gw, gb, g


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

    @property
    def n_actions(self) -> int:
        return self.trunk.sizes[-1]

    def clamped_log_std(self) -> np.ndarray:
        return np.clip(self.log_std, LOG_STD_MIN, LOG_STD_MAX)


@dataclass
class ValueNet:
    """Critic: MLP trunk to a single scalar, same input normalization."""

    net: Mlp
    obs_mean: np.ndarray
    obs_scale: np.ndarray


def make_policy(n_features: int, n_actions: int, hidden, rng,
                obs_mean=None, obs_scale=None,
                init_log_std: float = 0.0) -> GaussianPolicy:
    sizes = [n_features, *hidden, n_actions]
    return GaussianPolicy(
        trunk=mlp_init(sizes, rng, out_gain=0.01),
        log_std=np.full(n_actions, float(init_log_std)),
        obs_mean=_norm_vec(obs_mean, n_features, 0.0),
        obs_scale=_norm_vec(obs_scale, n_features, 1.0))


def make_value(n_features: int, hidden, rng,
               obs_mean=None, obs_scale=None) -> ValueNet:
    sizes = [n_features, *hidden, 1]
    return ValueNet(net=mlp_init(sizes, rng, out_gain=1.0),
                    obs_mean=_norm_vec(obs_mean, n_features, 0.0),
                    obs_scale=_norm_vec(obs_scale, n_features, 1.0))


def _norm_vec(v, n: int, default: float) -> np.ndarray:
    if v is None:
        return np.full(n, default)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (n,):
        raise ValueError(f"normalization vector must have shape ({n},), got {v.shape}")
    return v.copy()


def _normalize(x: np.ndarray, mean: np.ndarray, scale: np.ndarray) -> np.ndarray:
    return (x - mean) / scale


def forward_policy(p: GaussianPolicy, s) -> tuple[np.ndarray, np.ndarray]:
    """Action means and (clamped) log-std for one state or a batch."""
    x, single = _as_batch(s)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite state features")
    mean, _ = mlp_forward(p.trunk, _normalize(x, p.obs_mean, p.obs_scale))
    return (mean[0] if single else mean), p.clamped_log_std()


def policy_mean_cached(p: GaussianPolicy, s: np.ndarray
                       ) -> tuple[np.ndarray, list]:
    """Batch-only forward that keeps the cache for a later backward pass."""
    mean, cache = mlp_forward(
        p.trunk, _normalize(s, p.obs_mean, p.obs_scale))
    return mean, cache


def forward_value(v: ValueNet, s) -> np.ndarray | float:
    """Critic estimate for one state (scalar) or a batch (vector)."""
    x, single = _as_batch(s)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite state features")
    out, _ = mlp_forward(v.net, _normalize(x, v.obs_mean, v.obs_scale))
    return float(out[0, 0]) if single else out[:, 0]


def value_cached(v: ValueNet, s: np.ndarray) -> tuple[np.ndarray, list]:
    out, cache = mlp_forward(v.net, _normalize(s, v.obs_mean, v.obs_scale))
    return out[:, 0], cache


def gaussian_log_prob(mean: np.ndarray, log_std: np.ndarray,
                      a: np.ndarray) -> np.ndarray:
    """Diagonal-Gaussian log density of pre-clip actions, per batch row."""
    z = (a - mean) / np.exp(log_std)
    return -0.5 * (z ** 2).sum(axis=-1) - log_std.sum() \
        - 0.5 * mean.shape[-1] * LOG_2PI


def gaussian_entropy(log_std: np.ndarray) -> float:
    return float(log_std.sum() + 0.5 * len(log_std) * (1.0 + LOG_2PI))


@dataclass
class ActionSample:
    action: np.ndarray   # clipped to [-1, 1], what the environment executes
    preclip: np.ndarray  # raw Gaussian draw, what the log-prob refers to
    log_prob: np.ndarray


def sample_action(p: GaussianPolicy, s, rng: np.random.Generator) -> ActionSample:
    """Draw mean + exp(log_std) * z, score it pre-clip, clip for the env."""
    x, single = _as_batch(s)
    mean, log_std = forward_policy(p, x)
    z = rng.standard_normal(mean.shape)
    preclip = mean + np.exp(log_std) * z
    lp = gaussian_log_prob(mean, log_std, preclip)
    action = np.clip(preclip, -1.0, 1.0)
    if single:
        return ActionSample(action=action[0], preclip=preclip[0],
                            log_prob=lp[0])
    return ActionSample(action=action, preclip=preclip, log_prob=lp)


# ---------------------------------------------------------------------------
# Parameter flattening shared by the optimizer and checkpoints

def policy_params(p: GaussianPolicy) -> list:
    """Live parameter arrays of the actor, in a fixed order."""
    return [*p.trunk.weights, *p.trunk.biases, p.log_std]


def value_params(v: ValueNet) -> list:
    return [*v.net.weights, *v.net.biases]


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def adam_init(params: list, lr: float) -> AdamState:
    return AdamState(lr=lr,
                     m=[np.zeros_like(p) for p in params],
                     v=[np.zeros_like(p) for p in params])


def adam_step(params: list, grads: list, state: AdamState) -> None:
    """Standard bias-corrected Adam update, applied to params in place."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("parameter/gradient/state length mismatch")
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match "
                             f"parameter shape {p.shape}")
        m += (1.0 - b1) * (g - m)
        v += (1.0 - b2) * (g * g - v)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


# ---------------------------------------------------------------------------
# Checkpoints


def _mlp_to_json(m: Mlp) -> dict:
    return {"sizes": m.sizes,
            "weights": [w.tolist() for w in m.weights],
            "biases": [b.tolist() for b in m.biases]}


def _mlp_from_json(d: dict) -> Mlp:
    m = Mlp(weights=[np.array(w, dtype=np.float64) for w in d["weights"]],
            biases=[np.array(b, dtype=np.float64) for b in d["biases"]])
    if m.sizes != list(d["sizes"]):
        raise CheckpointError(f"stored sizes {d['sizes']} do not match "
                              f"weight shapes {m.sizes}")
    return m


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
        policy = GaussianPolicy(
            trunk=_mlp_from_json(pd),
            log_std=np.array(pd["log_std"], dtype=np.float64),
            obs_mean=np.array(pd["obs_mean"], dtype=np.float64),
            obs_scale=np.array(pd["obs_scale"], dtype=np.float64))
        value = ValueNet(
            net=_mlp_from_json(vd),
            obs_mean=np.array(vd["obs_mean"], dtype=np.float64),
            obs_scale=np.array(vd["obs_scale"], dtype=np.float64))
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing field {exc}") from None
    return policy, value
