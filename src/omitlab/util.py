"""Small shared helpers: per-cell flag masks, Python scalars out of batched
results, warning stacklevels, atomic file output, hashing and CSV rendering."""

import dataclasses
import functools
import hashlib
import json
import os
import sys

import numpy as np


def flag_cells(flags, mask, error):
    """Per-cell flags: the name of the exception class error in the cells of
    mask that flags ("" = none yet, broadcast against mask) leaves empty."""
    return np.where((flags == "") & mask, error.__name__, flags)


def with_python_scalars(cls, **values):
    """cls(**values), with 0-d numpy values passed as Python scalars."""
    return cls(**{k: v.item() if isinstance(v, (np.generic, np.ndarray)) and v.ndim == 0
                  else v for k, v in values.items()})


def scalar_in_scalar_out(func):
    """func(ep, x, ...) with x as a float array. A scalar x runs as a
    1-element array, on the ufunc path of array input (identical bits, and
    0/0 gives nan instead of raising), and each array in the result (an
    array, or a tuple or dataclass of them) comes back as a Python scalar."""
    def unbox(v):
        if isinstance(v, np.ndarray):
            return v.item()
        if isinstance(v, tuple):
            return tuple(map(unbox, v))
        if dataclasses.is_dataclass(v):
            return type(v)(**{k: unbox(f) for k, f in vars(v).items()})
        return v

    @functools.wraps(func)
    def run(ep, x, *args, **kwargs):
        out = func(ep, np.atleast_1d(np.asarray(x, dtype=float)), *args, **kwargs)
        return out if np.ndim(x) else unbox(out)
    return run


def stacklevel_outside():
    """The stacklevel, for warnings.warn in the function that calls this
    one, of the first frame outside this package and dataclasses: the line
    that called into the package, directly, through dataclasses.replace or
    through a generated __init__ (which runs in its module's globals)."""
    inside = (__name__.partition(".")[0], "dataclasses")
    frame, level = sys._getframe(1), 1
    while frame and frame.f_globals.get("__name__", "").partition(".")[0] in inside:
        frame, level = frame.f_back, level + 1
    return level


def atomic_write(path, text):
    """Write text to path via a temp file and rename, never a partial file.
    The file gets the mode open() would give it: 0o666 less the umask."""
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def render_csv(header, rows):
    """CSV text with a mandatory header; rows are sequences of cell strings."""
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


def fingerprint_dict(d):
    """sha256 hex digest of d as JSON with sorted keys, no whitespace and
    floats in their shortest round-trip form."""
    text = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
