"""Minimal dense-network substrate for the dispatch agent.

Plain numpy multilayer perceptrons (tanh hidden layers, identity output)
with hand-written reverse-mode gradients, a diagonal-Gaussian policy head
with state-independent log-std, a scalar value head, an Adam optimizer, and
a JSON checkpoint format whose loader reads the actor and skips the critic.
The actor keeps a fixed input normalizer (:func:`normalize`), applied
once where a state enters; :func:`mlp_forward` and :func:`blocked_forward`
run on the network inputs it gives, the critic (a bare :class:`Mlp`)
included.

Everything here is deterministic for fixed inputs and RNG state; gradient
correctness against central finite differences is the load-bearing test.
"""

import base64
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .env import N_ACTIONS, N_FEATURES
from .table import read_text, write_text

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0

CHECKPOINT_FORMAT = "mgrl-checkpoint"
# Each array is stored as base64 float64 bytes.  Version 1 (nested lists
# of decimal floats) no longer loads: retrain with ``mgrl train``.
CHECKPOINT_VERSION = 2

LOG_2PI = math.log(2.0 * math.pi)

# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# blocked_forward runs a larger batch (the explainer's 5,000-state
# cloud, a rollout's state stack) in row blocks of at most
# ~BLOCK_ROWS, so its activations take O(BLOCK_ROWS x width) memory, not
# O(B x width).
# 512-1024 rows ran a 6-64-64-5 actor equally fast on 2 cores; 512
# holds the least.
BLOCK_ROWS = 512
BLOCK_ALIGN = 64


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
                scratch: np.ndarray | None = None) -> tuple[np.ndarray, list]:
    """Forward pass on an (n_in,) row, a (B, n_in) batch or a
    (T, B, n_in) stack of batches; cache holds each layer's input.

    With ``outs`` (one array per layer, at least as long as x) and
    ``scratch`` (a flat array of at least x's rows x the widest layer,
    given together) layer i writes its output into the front of
    ``outs[i]`` and allocates nothing; without them each layer output is
    a fresh array.  That form multiplies a row or a batch with
    ``ndarray.dot``: the BLAS call of ``@``, with its bits, at about half
    its per-call dispatch, which an evaluation or rollout hour's small
    products pay in full.  A stack keeps ``@``, as ``dot`` on a stack is
    another product, slower and with other bits.
    """
    inputs = [x]
    h = x
    last = len(m.weights) - 1
    for i, (w, b) in enumerate(zip(m.weights, m.biases)):
        if outs is None:
            # A fresh array, so the bias and tanh can go in place
            h = h @ w if h.ndim > 2 else h.dot(w)
            h += b
        else:
            h = np.matmul(h, w, out=outs[i][:len(x)])
            # Tile the bias first: a broadcast add allocates an iteration
            # buffer of up to 64 KiB inside NumPy.
            bias = _rows(scratch, *h.shape)
            np.copyto(bias, b)
            h += bias
        if i < last:
            np.tanh(h, out=h)
        inputs.append(h)
    return h, inputs


def mlp_backward(m: Mlp, cache: list, gy: np.ndarray, grads: list,
                 scratch: np.ndarray, input_grad: bool = True
                 ) -> np.ndarray | None:
    """Exact reverse-mode pass into caller buffers; returns the input
    gradient.

    ``grads`` ([*weight grads, *bias grads], shaped like the parameters)
    receives the parameter gradients, and ``scratch`` (a flat array of at
    least B x the widest layer, input included) each layer's product
    with its weights.  The pass uses the cache up: each hidden
    activation ``cache[1:-1]`` becomes tanh' and then the gradient
    flowing into it, while the input ``cache[0]`` and the output
    ``cache[-1]`` stay.  The input gradient is a view of ``scratch``;
    with ``input_grad`` False it is skipped and None is returned.
    """
    n_layers = len(m.weights)
    n = len(gy)
    g = gy
    for i in range(n_layers - 1, -1, -1):
        np.matmul(cache[i].T, g, out=grads[i])
        np.add.reduce(g, axis=0, out=grads[n_layers + i])
        if i == 0 and not input_grad:
            return None
        gx = np.matmul(g, m.weights[i].T,
                       out=_rows(scratch, n, m.weights[i].shape[0]))
        if i > 0:  # tanh' through the hidden output, g flowing into it
            d = np.square(cache[i], out=cache[i])
            np.subtract(1.0, d, out=d)
            gx = np.multiply(gx, d, out=d)
        g = gx
    return g


def _rows(scratch: np.ndarray, *shape: int) -> np.ndarray:
    """C-order view of that shape at the front of the flat scratch array."""
    return scratch[:math.prod(shape)].reshape(shape)


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
        # np.clip, whose Python wrapper costs as much again as its ufuncs
        return np.minimum(np.maximum(self.log_std, LOG_STD_MIN), LOG_STD_MAX)


def make_policy(n_features: int, n_actions: int, hidden, rng,
                obs_mean, obs_scale,
                init_log_std: float = 0.0) -> GaussianPolicy:
    sizes = [n_features, *hidden, n_actions]
    return GaussianPolicy(
        trunk=mlp_init(sizes, rng, out_gain=0.01),
        log_std=np.full(n_actions, float(init_log_std)),
        obs_mean=np.array(obs_mean, dtype=np.float64).reshape(n_features),
        obs_scale=np.array(obs_scale, dtype=np.float64).reshape(n_features))


def normalize(policy: GaussianPolicy, x) -> np.ndarray:
    """The networks' input, a fresh array: raw states under the actor's
    fixed affine map, unchecked, as each state is checked where it
    enters."""
    out = x - policy.obs_mean  # the one temporary, divided in place
    out /= policy.obs_scale
    return out


def blocked_forward(m: Mlp, x: np.ndarray) -> np.ndarray:
    """``mlp_forward(m, x)[0]`` bit for bit on a batch of network inputs
    (a view into a larger table included); a batch above BLOCK_ROWS
    runs in row blocks through one block's activation buffers, which
    each block reuses (fresh arrays per block would page-fault as often
    as one pass), and writes its rows of the output in place.

    The blocks are near-equal, so none is small enough for BLAS to take
    another path (a 1-3 row product rounds unlike the same rows inside
    a larger one), and they start on multiples of BLOCK_ALIGN rows, so
    each row meets the kernels' row unrolling where one pass would put
    it (the critic's one-column product rounds the rows of a block
    begun off a multiple of 4 otherwise).

    A (T, B, n_in) stack is one product per slice, the one that slice
    alone would make, so its blocks are any runs of whole slices.
    """
    n = len(x)
    per_block, align = ((BLOCK_ROWS, BLOCK_ALIGN) if x.ndim == 2 else
                        (max(1, BLOCK_ROWS // x.shape[1]), 1))
    if n <= per_block:
        return mlp_forward(m, x)[0]
    k = -(-n // per_block)
    edges = [i * n // k // align * align for i in range(k)] + [n]
    rows = max(hi - lo for lo, hi in zip(edges[:-1], edges[1:]))
    inner = x.shape[1:-1]  # () for a batch, (B,) for a stack
    out = np.empty((*x.shape[:-1], m.sizes[-1]))
    hidden = [np.empty((rows, *inner, width)) for width in m.sizes[1:-1]]
    scratch = np.empty(rows * math.prod(inner) * max(m.sizes[1:]))
    for lo, hi in zip(edges[:-1], edges[1:]):
        mlp_forward(m, x[lo:hi], [*hidden, out[lo:]], scratch)
    return out


def gaussian_log_prob(mean: np.ndarray, log_std: np.ndarray, a: np.ndarray,
                      z: np.ndarray | None = None) -> np.ndarray:
    """Diagonal-Gaussian log density of actions as drawn, per batch row;
    ``z`` (shaped like ``a``) receives the residual (a - mean) / std."""
    z = np.subtract(a, mean, out=z)
    z /= np.exp(log_std)
    return -0.5 * np.add.reduce(z * z, axis=-1) - log_std.sum() \
        - 0.5 * mean.shape[-1] * LOG_2PI


def gaussian_entropy(log_std: np.ndarray) -> float:
    return float(log_std.sum() + 0.5 * len(log_std) * (1.0 + LOG_2PI))


def policy_action(mean: np.ndarray, std: np.ndarray | None = None,
                  z: np.ndarray | None = None) -> np.ndarray:
    """The action at action means ``mean``: the mean, or with standard
    normal draws ``z`` the draw mean + std * z, as the environment takes
    it and the log-density scores it (:func:`mgrl.env.step` and
    :func:`mgrl.env.allocate` clamp it to the actions' range)."""
    return mean if z is None else mean + std * z


# ---------------------------------------------------------------------------
# Parameter lists, and the one flat vector the optimizer updates

def policy_params(p: GaussianPolicy) -> list:
    """Live parameter arrays of the actor, in a fixed order."""
    return [*p.trunk.weights, *p.trunk.biases, p.log_std]


def value_params(v: Mlp) -> list:
    return [*v.weights, *v.biases]


def flat_views(flat: np.ndarray, like: list) -> list:
    """Consecutive views into a flat vector, shaped like the arrays of like."""
    views, lo = [], 0
    for a in like:
        views.append(flat[lo:lo + a.size].reshape(a.shape))
        lo += a.size
    return views


def pack_params(policy: GaussianPolicy, value: Mlp) -> np.ndarray:
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
    value.weights = [next(views) for _ in value.weights]
    value.biases = [next(views) for _ in value.biases]
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
    b1, b2 = ADAM_BETA1, ADAM_BETA2
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
    u += ADAM_EPS
    t /= u
    theta -= t


# ---------------------------------------------------------------------------
# Checkpoints


def _encode(a: np.ndarray) -> dict:
    """An array as stored in a version-2 checkpoint: its shape and the
    base64 of its C-order little-endian float64 bytes."""
    return {"shape": list(a.shape),
            "data": base64.b64encode(
                np.ascontiguousarray(a, dtype="<f8").tobytes()).decode()}


def _mlp_to_json(m: Mlp) -> dict:
    return {"sizes": m.sizes,
            "weights": [_encode(w) for w in m.weights],
            "biases": [_encode(b) for b in m.biases]}


def _ints(value) -> bool:
    """A list of integers, bools and floats such as 6.0 excluded."""
    return isinstance(value, list) and all(type(k) is int for k in value)


def _floats(name: str, value, shape: tuple) -> np.ndarray:
    """A stored field, an ``_encode`` object, as a finite float64 array
    of the given shape."""
    if not (isinstance(value, dict) and "shape" in value and "data" in value):
        raise CheckpointError(f"{name} is not an object with shape and data")
    if not _ints(value["shape"]):
        raise CheckpointError(f"{name}.shape is not a list of integers")
    stored = tuple(value["shape"])
    if stored != shape:
        raise CheckpointError(f"{name} has shape {stored}; the stored "
                              f"sizes give {shape}")
    try:
        raw = base64.b64decode(value["data"], validate=True)
    except (TypeError, ValueError):  # binascii.Error is a ValueError
        raise CheckpointError(f"{name}.data is not base64") from None
    size = 8 * math.prod(shape)
    if len(raw) != size:
        raise CheckpointError(f"{name}.data holds {len(raw)} bytes; "
                              f"shape {shape} needs {size}")
    # A fresh native array: aligned and writable
    a = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.all(np.isfinite(a)):
        raise CheckpointError(f"{name} holds a non-finite value")
    return a


def save_checkpoint(policy: GaussianPolicy, value: Mlp,
                    path: str | os.PathLike) -> None:
    """Persist actor and critic as JSON, each array as its exact float64
    bytes (``_encode``)."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "policy": {**_mlp_to_json(policy.trunk),
                   "log_std": _encode(policy.log_std),
                   "obs_mean": _encode(policy.obs_mean),
                   "obs_scale": _encode(policy.obs_scale)},
        "value": _mlp_to_json(value),
    }
    write_text(path, json.dumps(doc) + "\n")


def load_checkpoint(path: str | os.PathLike) -> GaussianPolicy:
    """The actor a checkpoint stores; a stored critic is never read."""
    text = read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: not valid JSON: {exc}") from None
    except (RecursionError, ValueError) as exc:
        # Nesting past the recursion limit, or an int past the digit limit
        raise CheckpointError(f"{path}: cannot parse JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    version = doc.get("version")
    # type(): 2.0 equals 2 but is not a version
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version "
                              f"{version}")
    try:
        pd = doc["policy"]
        if not isinstance(pd, dict):
            raise CheckpointError("policy is not an object")
        sizes = pd["sizes"]
        if not _ints(sizes):
            raise CheckpointError("policy.sizes is not a list of integers")
        if min(sizes, default=1) < 1:
            raise CheckpointError(f"policy.sizes {sizes} has a width below 1")
        for key in ("weights", "biases"):
            if not isinstance(pd[key], list):
                raise CheckpointError(f"policy.{key} is not a list")
        shapes = list(zip(sizes[:-1], sizes[1:]))
        if not len(pd["weights"]) == len(pd["biases"]) == len(shapes) > 0:
            raise CheckpointError(f"policy needs one weight matrix and one "
                                  f"bias per layer of the stored sizes "
                                  f"{sizes}")
        trunk = Mlp(
            weights=[_floats(f"policy.weights[{i}]", w, s)
                     for i, (w, s) in enumerate(zip(pd["weights"], shapes))],
            biases=[_floats(f"policy.biases[{i}]", b, s[1:])
                    for i, (b, s) in enumerate(zip(pd["biases"], shapes))])
        if (sizes[0], sizes[-1]) != (N_FEATURES, N_ACTIONS):
            raise CheckpointError(f"policy.sizes {sizes} does not map "
                                  f"{N_FEATURES} features to {N_ACTIONS} "
                                  f"actions")
        log_std = _floats("policy.log_std", pd["log_std"], (N_ACTIONS,))
        obs_mean, obs_scale = (_floats(f"policy.{k}", pd[k], (N_FEATURES,))
                               for k in ("obs_mean", "obs_scale"))
        if np.any(obs_scale <= 0.0):
            raise CheckpointError("policy.obs_scale holds a non-positive "
                                  "value")
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing field {exc}") from None
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return GaussianPolicy(trunk, log_std, obs_mean, obs_scale)
