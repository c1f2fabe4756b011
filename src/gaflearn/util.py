"""Small shared helpers: seed derivation, atomic file writes and numerically
safe primitives."""

from __future__ import annotations

import dataclasses
import hashlib
import os
from pathlib import Path

import numpy as np

from .errors import ConfigError, InputShapeError


def derive_seed(*parts: int | str) -> int:
    """Derive a stable uint64 seed from a tuple of ints/strings.

    Uses sha256 so the value is independent of PYTHONHASHSEED, platform,
    and process; the same parts always yield the same seed.
    """
    msg = "\x1f".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(msg).digest()[:8], "little")


def check_field_types(config) -> None:
    """Raise ConfigError unless every field of a config dataclass holds its annotated kind.

    An ``int`` field needs an int, a ``float`` field a float or an int that
    converts to one (it is kept an int), a ``str`` field a str, and a
    ``tuple[int, ...]`` field a list or tuple of ints. A bool is none of
    these, though Python counts it as an int. Fields of other types, paths
    and nested sections, are skipped: the config loader builds those. A
    field's message names it by its ``key`` metadata when it has one, as the
    config file does.
    """

    def holds(value, kinds: tuple[type, ...]) -> bool:
        return isinstance(value, kinds) and not isinstance(value, bool)

    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.type == "tuple[int, ...]":
            ok = isinstance(value, (list, tuple)) and all(holds(v, (int,)) for v in value)
            want = "a list of integers"
        elif f.type == "int":
            ok = holds(value, (int,))
            want = "an integer"
        elif f.type == "float":
            ok = holds(value, (int, float))
            want = "a number"
            if ok and isinstance(value, int):  # json keeps a long integer an int
                try:
                    float(value)
                except OverflowError:
                    ok, want = False, "a number within the float range"
        elif f.type == "str":
            ok = isinstance(value, str)
            want = "a string"
        else:  # a path or a nested section
            continue
        if not ok:
            raise ConfigError(f"{f.metadata.get('key', f.name)} must be {want}, got {value!r}")


def class_indices(
    y, n_rows: int | None = None, n_classes: int | None = None, what: str = "labels"
) -> np.ndarray:
    """y as an int64 vector of class indices, or InputShapeError.

    y must be 1-D, with n_rows entries when that is given, of an integer or
    bool dtype (an empty y may have any dtype), and every index must be at
    least 0 and, when n_classes is given, below it. ``what`` names y in the
    messages.
    """
    y = np.asarray(y)
    if y.ndim != 1 or n_rows not in (None, y.shape[0]):
        want = "a vector of" if n_rows is None else n_rows
        raise InputShapeError(f"expected {want} {what}, got shape {y.shape}")
    if y.size and y.dtype.kind not in "biu":
        raise InputShapeError(f"{what} must be integer class indices, got dtype {y.dtype}")
    y = y.astype(np.int64, copy=False)  # a uint64 past int64's range turns negative
    if y.size and (y.min() < 0 or n_classes is not None and y.max() >= n_classes):
        bound = "" if n_classes is None else f" below {n_classes}"
        raise InputShapeError(f"{what} must be class indices from 0{bound}")
    return y


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write text to path as UTF-8, all of it or nothing.

    The text goes to a temporary file beside path, which ``os.replace`` then
    puts in its place, so a failed or interrupted write leaves any old file
    whole and no temporary file behind. The bytes are those of
    ``Path.write_text(text, encoding="utf-8")``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@np.errstate(over="ignore")  # as a decorator it costs less than a with block
def expit(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The logistic ``1 / (1 + exp(-x))`` of a float64 array, elementwise, in
    place into ``out`` when given (it may be x).

    The formula is scipy 1.17's ``scipy.special.expit``; numpy's exp may
    differ from the C library's by a few ULP. exp's overflow is silenced, so
    x <= -709.78 and -inf give exactly 0 and +inf exactly 1.
    """
    out = np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1
    return np.reciprocal(out, out=out)


@np.errstate(divide="ignore", invalid="ignore")
def logit(p: np.ndarray) -> np.ndarray:
    """The log-odds ``log(p / (1 - p))`` of p, elementwise, as a new float64 array.

    As in scipy 1.17's ``scipy.special.logit``, p in [0.3, 0.65] takes
    ``log1p(s) - log1p(-s)`` with ``s = 2 (p - 0.5)`` instead, which keeps
    its precision near 0.5. 0 and 1 give -inf and +inf, a p outside [0, 1]
    NaN, all without a warning.
    """
    p = np.asarray(p, dtype=np.float64)
    s = 2 * (p - 0.5)
    return np.where((p >= 0.3) & (p <= 0.65), np.log1p(s) - np.log1p(-s), np.log(p / (1 - p)))


def _shifted_exp(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """z's last-axis max (keepdims) and ``exp(z - max)``. Over many rows the
    max takes one np.maximum per column, as numpy reduces a short last axis
    row by row; a single row takes numpy's max, one call. A max is exact in
    any order, NaN propagates either way, and a 0.0/-0.0 tie changes no later
    value."""
    if z.size == z.shape[-1] > 0:
        z_max = z.max(axis=-1, keepdims=True)
    else:
        z_max = z[..., :1]
        for j in range(1, z.shape[-1]):  # one new array, then in place
            z_max = np.maximum(z_max, z[..., j : j + 1], out=None if j == 1 else z_max)
    return z_max, np.exp(z - z_max)


def last_axis_sum(a: np.ndarray) -> np.ndarray:
    """a's float64 sums over its last axis, kept as a width-1 axis: bit for bit
    ``a.sum(axis=-1, keepdims=True, dtype=np.float64)``.

    Below width 8 numpy adds each row left to right, starting from +0.0, but
    it reduces a short last axis one row at a time. The same adds made one
    column at a time for all rows at once are several times faster. From
    width 8 on, numpy sums pairwise, so those rows keep ``.sum``, and so
    does a single row, for which ``.sum`` is one call.
    """
    if not 0 < a.shape[-1] < 8 or a.size == a.shape[-1]:
        return a.sum(axis=-1, keepdims=True, dtype=np.float64)
    s = a[..., :1] + 0.0  # a new float64 array; as in numpy, -0.0 becomes +0.0
    for j in range(1, a.shape[-1]):
        s += a[..., j : j + 1]
    return s


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis that tolerates +/-inf entries.

    +inf pre-activations (base score exactly 1) take all the mass, split
    uniformly if several; a row of only -inf degenerates to uniform.
    """
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    if np.isinf(z).any():  # +inf entries become 0, the rest -inf; rows of only -inf, 0
        pos = np.isposinf(z)
        z = np.where(pos.any(axis=-1, keepdims=True), np.where(pos, 0.0, -np.inf), z)
        z = np.where(np.isneginf(z).all(axis=-1, keepdims=True), 0.0, z)
    e = _shifted_exp(z)[1]
    e /= last_axis_sum(e)
    return e


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def log_sum_exp(z: np.ndarray) -> np.ndarray:
    """log(sum(exp(z))) over the last axis, bit for bit as scipy 1.17's logsumexp:
    log1p(sum of exp(z - max) over the non-max terms / m) + log(m) + max,
    for m tied maxima, and the direct form wherever that is not finite.
    """
    z_max, e = _shifted_exp(z)
    is_max = z == z_max
    m = last_axis_sum(is_max)
    # e's non-max terms are scipy's exp(where(is_max, -inf, z) - max) bit for
    # bit; only rows of only -inf differ (0 here, NaN there), and both of
    # those end in the direct form
    s = last_axis_sum(np.where(is_max, 0.0, e))
    out = (np.log1p(np.where(s == 0, s, s / m)) + np.log(m) + z_max)[..., 0]
    finite = np.isfinite(out)
    if not finite.all():
        out = np.where(finite, out, np.log(np.exp(z).sum(axis=-1)))
    return out
