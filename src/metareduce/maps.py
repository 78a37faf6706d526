"""Built-in deterministic maps and their Jacobians.

Every builder returns ``(d, pi, jac)``.  ``pi`` and ``jac`` act on arrays of
points of shape ``(..., d)``: ``pi`` returns the images, shape ``(..., d)``,
and ``jac`` the Jacobians, shape ``(..., d, d)``.  A single point is the
case ``(d,)``.  Maps are registered under a string id so they can be named
in run configs.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

_REGISTRY = {}


def register(name):
    def deco(fn):
        _REGISTRY[name] = fn
        return fn
    return deco


def builtin_names():
    return sorted(_REGISTRY)


def build_map(name, params):
    """Instantiate a registered map; returns (dimension, pi, jac)."""
    if name not in _REGISTRY:
        raise ConfigError(f"unknown map '{name}'; known: {builtin_names()}")
    try:
        return _REGISTRY[name](dict(params or {}))
    except (KeyError, TypeError, ValueError) as exc:
        msg = f"map '{name}': bad params {params!r}: {exc!r}"
        raise ConfigError(msg) from exc


@register("tanh")
def _tanh(params):
    beta = float(params.pop("beta", 2.0))
    _no_extra(params, "tanh")

    def pi(x):
        return np.tanh(beta * x)

    def jac(x):
        return (beta * (1.0 - np.tanh(beta * x) ** 2))[..., None]

    return 1, pi, jac


@register("cubic")
def _cubic(params):
    a = float(params.pop("a", 1.8))
    b = float(params.pop("b", 1.0))
    d = float(params.pop("d", 0.0))
    _no_extra(params, "cubic")

    def pi(x):
        return a * x - b * x ** 3 + d

    def jac(x):
        return (a - 3.0 * b * x ** 2)[..., None]

    return 1, pi, jac


@register("linear")
def _linear(params):
    a = float(params.pop("a", 0.5))
    _no_extra(params, "linear")

    def pi(x):
        return a * x

    def jac(x):
        return np.full(x.shape + (1,), a)

    return 1, pi, jac


@register("poly")
def _poly(params):
    # 1D polynomial sum_k c_k x^k, coefficients in increasing degree
    coeffs = np.asarray(params.pop("coeffs"), dtype=float)
    _no_extra(params, "poly")
    if coeffs.ndim != 1 or coeffs.size < 2:
        raise ConfigError("poly map needs a 1D 'coeffs' list of length >= 2")
    dcoeffs = coeffs[1:] * np.arange(1, coeffs.size)

    def pi(x):
        return np.polynomial.polynomial.polyval(x, coeffs)

    def jac(x):
        return np.polynomial.polynomial.polyval(x, dcoeffs)[..., None]

    return 1, pi, jac


@register("tanh2d")
def _tanh2d(params):
    b = _beta_pair(params)
    _no_extra(params, "tanh2d")

    def pi(x):
        return np.tanh(b * x)

    def jac(x):
        return (b * (1.0 - np.tanh(b * x) ** 2))[..., None] * np.eye(2)

    return 2, pi, jac


@register("coupled2d")
def _coupled2d(params):
    b1, b2 = _beta_pair(params).tolist()
    gamma = float(params.pop("gamma", 0.3))
    _no_extra(params, "coupled2d")

    def pi(x):
        return np.stack([np.tanh(b1 * x[..., 0] + gamma * x[..., 1]),
                         np.tanh(b2 * x[..., 1] + gamma * x[..., 0])], axis=-1)

    def jac(x):
        s1 = 1.0 - np.tanh(b1 * x[..., 0] + gamma * x[..., 1]) ** 2
        s2 = 1.0 - np.tanh(b2 * x[..., 1] + gamma * x[..., 0]) ** 2
        return np.stack([np.stack([b1 * s1, gamma * s1], axis=-1),
                         np.stack([gamma * s2, b2 * s2], axis=-1)], axis=-2)

    return 2, pi, jac


def _beta_pair(params):
    """``params["beta"]`` (popped; default (2, 2)) as exactly two floats."""
    beta = np.array(params.pop("beta", (2.0, 2.0)), dtype=float)
    if beta.shape != (2,):
        raise ValueError("'beta' must hold exactly two numbers")
    return beta


def _no_extra(params, name):
    if params:
        raise ConfigError(f"unknown parameters for map '{name}': {sorted(params)}")
