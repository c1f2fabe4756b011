"""Small shared helpers: seed derivation and numerically safe primitives."""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.special import expit, logit  # noqa: F401  (re-exported)


def derive_seed(*parts: int | str) -> int:
    """Derive a stable uint64 seed from a tuple of ints/strings.

    Uses sha256 so the value is independent of PYTHONHASHSEED, platform,
    and process; the same parts always yield the same seed.
    """
    msg = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(msg).digest()[:8], "little")


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis that tolerates +/-inf entries.

    +inf pre-activations (base score exactly 1) take all the mass, split
    uniformly if several; a row of only -inf degenerates to uniform.
    """
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    if np.isinf(z).any():
        out = np.empty_like(z)
        for i in np.ndindex(z.shape[:-1]):
            row = z[i]
            pos = np.isposinf(row)
            if pos.any():
                out[i] = pos / pos.sum()
            elif np.isneginf(row).all():
                out[i] = 1.0 / row.size
            else:
                shifted = row - row[np.isfinite(row)].max()
                e = np.where(np.isneginf(shifted), 0.0, np.exp(shifted))
                out[i] = e / e.sum()
        return out
    zmax = z.max(axis=-1, keepdims=True)
    e = np.exp(z - zmax)
    return e / e.sum(axis=-1, keepdims=True)


def log_sum_exp(z: np.ndarray) -> np.ndarray:
    """log(sum(exp(z))) over the last axis, bit for bit as scipy 1.17's logsumexp:
    log1p(sum of exp(z - max) over the non-max terms / m) + log(m) + max,
    for m tied maxima, and the direct form wherever that is not finite.
    """
    z_max = z.max(axis=-1, keepdims=True)
    is_max = z == z_max
    m = is_max.sum(axis=-1, keepdims=True, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.exp(np.where(is_max, -np.inf, z) - z_max).sum(axis=-1, keepdims=True)
        out = (np.log1p(np.where(s == 0, s, s / m)) + np.log(m) + z_max)[..., 0]
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.exp(z).sum(axis=-1)))
    return out
