"""Small shared helpers: per-cell flag codes, Python scalars out of batched
results, warning stacklevels, atomic file output, hashing, and the text
of the CSV and SVG writers: columns of cells, (rows, width) uint8 arrays of
ASCII padded with NUL bytes anywhere, read side by side without the NULs.
``repr_cells`` and ``fixed_cells`` format whole float arrays as repr and
``.2f`` do, byte for byte."""

import dataclasses
import functools
import hashlib
import json
import os
import sys

import numpy as np

from .errors import (ConfigError, DegenerateDenominator, MissingBranch,
                     NearZeroTransmission, NumericalError, RootRefinementError,
                     StepTooLarge)

# the errors that flag a cell: a flag is a uint8 code, the index of its
# error here, and 0 (None) for none. Codes are stable: a new error takes
# the next code, and names are written only where flags are printed
FLAG_ERRORS = (None, StepTooLarge, MissingBranch, NumericalError, RootRefinementError,
               NearZeroTransmission, DegenerateDenominator)
FLAG_NAMES = ("", *(e.__name__ for e in FLAG_ERRORS[1:]))


def flag_cells(flags, mask, error):
    """Per-cell flag codes: the code of the exception class error in the
    cells of mask that flags (0 = none yet, broadcast against mask) leaves
    0."""
    return np.where((flags == 0) & mask, np.uint8(FLAG_ERRORS.index(error)),
                    flags).astype(np.uint8, copy=False)


def flag_names(flags):
    """The names of the flag codes flags, as a str array of their shape: ""
    or the name of the error of each cell."""
    return np.asarray(np.array(FLAG_NAMES)[flags])


def with_python_scalars(cls, **values):
    """cls(**values), with 0-d numpy values passed as Python scalars."""
    return cls(**{k: v.item() if isinstance(v, (np.generic, np.ndarray)) and v.ndim == 0
                  else v for k, v in values.items()})


def scalar_in_scalar_out(func):
    """func(ep, x, ...) with x as a float array; a complex x, scalar or
    array, is a ConfigError. A scalar x runs as a 1-element array, on the
    ufunc path of array input (identical bits, and 0/0 gives nan instead of
    raising), and each array in the result (an array, or a tuple or
    dataclass of them) comes back as a Python scalar."""
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
        out = func(ep, np.atleast_1d(real_array(x)), *args, **kwargs)
        return out if np.ndim(x) else unbox(out)
    return run


def real_array(x):
    """The detuning x as a float array; a complex x, scalar or array, is a
    ConfigError."""
    a = np.asarray(x)
    if np.iscomplexobj(a):
        raise ConfigError(f"the detuning must be real, not of complex type {a.dtype}")
    return a.astype(float, copy=False)


def _module_name(frame):
    """The name of the module of frame: its __spec__'s where it has one, so
    that this package's __main__ run by python -m counts as the package."""
    spec = frame.f_globals.get("__spec__")
    return getattr(spec, "name", None) or frame.f_globals.get("__name__", "")


def stacklevel_outside():
    """The stacklevel, for warnings.warn in the function that calls this
    one, of the first frame outside this package and dataclasses: the line
    that called into the package, directly, through dataclasses.replace or
    through a generated __init__ (which runs in its module's globals)."""
    inside = (__name__.partition(".")[0], "dataclasses")
    frame, level = sys._getframe(1), 1
    while frame and _module_name(frame).partition(".")[0] in inside:
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




def fingerprint_dict(d):
    """sha256 hex digest of d as JSON with sorted keys, no whitespace and
    floats in their shortest round-trip form."""
    text = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Text tables

_ZERO, _DOT, _MINUS = 48, 46, 45
_EXP_MINUS = np.frombuffer(b"e-", np.uint8)
# 10**p = _POW10[p] + _POW10_TAIL[p] exactly for p <= 46: 10**p = 2**p 5**p,
# and 5**p < 2**107 is a double plus an integer tail below 2**53 (the tail
# is 0 up to p = 22)
_POW10 = np.array([float(10 ** p) for p in range(47)])
_POW10_TAIL = np.array([float(10 ** p - int(float(10 ** p))) for p in range(47)])
# the bound on the rounding of the comparisons of repr_cells where the tail
# is not 0, about 50 times their worst case
_MARGIN = 2.0 ** -40
_QUADS = (np.arange(10000, dtype=np.int16)[:, None] // np.int16([1000, 100, 10, 1]) % 10
          + _ZERO).astype(np.uint8)
# the ASCII digits of 0000-9999 as one uint32 each, then again with their
# trailing zeros as NUL (all four for 0000)
_QUAD_TEXT = np.concatenate([_QUADS, _QUADS * ~np.logical_and.accumulate(
    _QUADS[:, ::-1] == _ZERO, axis=1)[:, ::-1]]).view(np.uint32).ravel()


def _split(a):
    """Veltkamp's split of a into two halves of 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _two_product(a, p):
    """(hi, lo): a * 10**p = hi + lo exactly (Dekker), for finite a >= 0."""
    hi, (ah, al), bh, bl = a * _POW10[p], _split(a), _POW10_HI[p], _POW10_LO[p]
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _digits(c, groups, trim=False):
    """(n, 4 groups) ASCII digits of the int64 array c < 10**(4 groups),
    zero-padded; with trim its trailing zeros are NUL."""
    out, zero = np.empty((c.size, groups), np.uint32), trim
    for j in range(groups - 1, -1, -1):
        q = c // 10000
        r, c = c - q * 10000, q
        out[:, j] = _QUAD_TEXT.take(r + 10000 * zero)
        zero = zero & (r == 0)
    return out.view(np.uint8)


def _fallback(cells, a, slow, fmt):
    """cells, widened as needed, with the rows slow set to fmt of a[slow]."""
    if not slow.size:
        return cells
    text = text_cells([fmt(v) for v in a[slow].tolist()])
    cells = np.pad(cells, ((0, 0), (0, max(0, text.shape[1] - cells.shape[1]))))
    cells[slow] = 0
    cells[slow, :text.shape[1]] = text
    return cells


def _scaled(x, e10, e2):
    """(n, f, h, rounded): v = x 10**p = n + f, p = 16 - e10, n an integer
    and 0 <= f < 1; h, half the spacing of the doubles at x scaled alike;
    and the rows whose 10**p has a tail, or None if there are none (a
    reduction costs less than a search on the positional rows alone)."""
    p = 16 - e10
    hi, lo = _two_product(x, p)
    h = np.ldexp(_POW10[p], e2 - 54)
    rounded = np.flatnonzero(p > 22) if e10.min(initial=0) < -6 else None
    if rounded is not None:
        pr = p[rounded]
        lo[rounded] += x[rounded] * _POW10_TAIL[pr]
        h[rounded] += np.ldexp(_POW10_TAIL[pr], e2[rounded] - 54)
    floor = np.floor(lo)
    return hi.astype(np.int64) + floor.astype(np.int64), lo - floor, h, rounded


def repr_cells(a):
    """repr of each float of a (raveled), as cells. For finite 1e-29 <= |x|
    < 1e16, v = |x| 10**p has 17 integer digits, and x's rounding interval
    is v +- h, 0.5 < h < 11.1 (ends included for an even mantissa): the
    shortest digits are the multiple of 100 in it if any, else the nearer
    multiple of 10 if in it, else the nearest integer; 10**17 among them is
    the digit 1 one exponent up. Below 1e-4 they are written in repr's
    scientific notation, d.ddde-XX. Up to p = 22 (|x| >= 1e-6), v = hi + lo
    exactly and the comparisons are exact; beyond, 10**p is the exact sum
    of two doubles, v and h are rounded by less than 2e-14, and a
    comparison within _MARGIN takes repr. The rest, a power-of-two mantissa
    (an asymmetric interval) and two nearest candidates take repr too."""
    a = np.ravel(np.asarray(a, dtype=float))
    x = np.abs(a)
    fast = (x >= 1e-29) & (x < 1e16)
    x = np.where(fast, x, 1.0)
    m, e2 = np.frexp(x)
    e10 = np.floor(np.log10(x)).astype(np.int64).clip(-29, 15)
    n, f, h, rounded = _scaled(x, e10, e2)
    # log10 rounds up to k at the doubles just below 10**k, where v has 16
    # digits: one exponent down, they have 17
    short = n < 10 ** 16
    if short.any():
        e10 -= short
        n, f, h, rounded = _scaled(x, e10, e2)
    half = m * 2.0 ** 52  # half the integer mantissa, exact
    even = np.floor(half) == half
    r10, r100 = (n % 10).astype(float), (n % 100).astype(float)
    t100, t10 = r100 + f, r10 + f  # v - the multiple of 100 and of 10 below it
    # the distance to the nearer multiple (m - t is exact where it is nearer)
    d100, d10 = np.minimum(t100, 100.0 - t100), np.minimum(t10, 10.0 - t10)
    in100, in10 = ((d < h) | (d == h) & even for d in (d100, d10))
    c = n + np.where(in100, np.where(t100 > 50.0, 100.0 - r100, -r100),
                     np.where(in10, np.where(t10 > 5.0, 10.0 - r10, -r10), f > 0.5)
                     ).astype(np.int64)
    tie = ~in100 & np.where(in10, t10 == 5.0, f == 0.5)
    if rounded is not None:
        tie[rounded] |= np.any(np.abs([
            d100[rounded] - h[rounded], d10[rounded] - h[rounded],
            np.where(in10[rounded], t10[rounded] - 5.0, f[rounded] - 0.5)]) <= _MARGIN, axis=0)
    fast &= (n >= 10 ** 16) & (n < 10 ** 17) & (c <= 10 ** 17) & ~tie & (m != 0.5)
    up = c == 10 ** 17
    c, e10 = np.where(up, 10 ** 16, c), e10 + up

    # the rows of each exponent are laid out with static slices: column 0
    # for the sign, then the integer digits, '.' and the fraction, or '0.',
    # zeros and the digits, or (below -4) one digit, '.' if more follow, the
    # rest and e-XX
    d = _digits(c, 5, trim=True)[:, 3:]
    cells = np.zeros((a.size, 23), np.uint8)
    cells[:, 0] = np.signbit(a) * np.uint8(_MINUS)
    key = np.where(fast, e10, 16)
    for e in (np.flatnonzero(np.bincount(key + 30, minlength=47)[:46]) - 30).tolist():
        rows = np.flatnonzero(key == e)
        g, block = d[rows], cells[rows]
        if e >= 0:  # NUL (a trimmed zero) is '0' in the integer part and .0
            np.maximum(g[:, :e + 2], _ZERO, out=block[:, 1:e + 3])
            block[:, e + 3] = block[:, e + 2]
            block[:, e + 2] = _DOT
            block[:, e + 4:19] = g[:, e + 2:]
        elif e >= -4:
            block[:, 1:2 - e] = _ZERO
            block[:, 2] = _DOT
            block[:, 2 - e:19 - e] = g
        else:
            block[:, 1] = g[:, 0]
            block[:, 2] = (g[:, 1] != 0) * np.uint8(_DOT)
            block[:, 3:19] = g[:, 1:]
            block[:, 19:21] = _EXP_MINUS
            block[:, 21:] = _QUADS[-e, 2:]
        cells[rows] = block
    return _fallback(cells, a, np.flatnonzero(~fast), repr)


def fixed_cells(a):
    """f"{v:.2f}" of each float v of a (raveled), as cells: 100 |v| = hi + lo
    exactly, rounded half to even, '-' wherever the sign bit is set (-0.001
    gives -0.00); non-finite and |v| >= 1e13 take the f-string."""
    a = np.ravel(np.asarray(a, dtype=float))
    x = np.abs(a)
    fast = x < 1e13
    hi, lo = _two_product(np.where(fast, x, 0.0), 2)
    r = np.rint(hi)
    c = (r + ((hi - r == 0.5) & (lo > 0)) - ((hi - r == -0.5) & (lo < 0))).astype(np.int64)
    k = max(3, len(str(int(c.max(initial=0)))))
    d = _digits(c, -(-k // 4))[:, -k:]
    # the sign, the integer digits with leading zeros as NUL, '.', 2 decimals
    cells = np.zeros((a.size, k + 2), np.uint8)
    cells[:, 0] = np.signbit(a) * np.uint8(_MINUS)
    cells[:, 1:k - 2] = np.where(c[:, None] < 10 ** np.arange(k - 1, 2, -1), 0, d[:, :k - 3])
    cells[:, k - 2:] = np.insert(d[:, k - 3:], 1, _DOT, axis=1)
    return _fallback(cells, a, np.flatnonzero(~fast), "{:.2f}".format)


def text_cells(strings):
    """Cells of ASCII strings: a sequence, nested sequences or an array."""
    b = np.asarray(strings, dtype="S").ravel()
    return b.view(np.uint8).reshape(b.size, b.itemsize)


def name_text(codes, names):
    """Cells of names[c] for each code c of codes (raveled), as wide as the
    longest name among the codes present (0 wide for no codes), whatever
    the order of names."""
    codes = np.ravel(codes)
    cells = text_cells(names)
    present = np.bincount(codes, minlength=len(names)) > 0
    return cells[codes, :np.count_nonzero(cells[present], axis=1).max(initial=0)]


def table_text(*parts, head=""):
    """head, then the text of the table of parts side by side ((rows, w)
    cell arrays, and bytes repeated on every row): its bytes without the
    NULs, by blocks of rows, so that the whole table is never built."""
    rows = next(len(p) for p in parts if isinstance(p, np.ndarray))
    parts = [np.broadcast_to(np.frombuffer(p, np.uint8), (rows, len(p)))
             if isinstance(p, bytes) else p for p in parts]
    return "".join([head, *(np.concatenate([p[i:i + 1024] for p in parts], axis=1).tobytes()
                            .translate(None, b"\0").decode("ascii")
                            for i in range(0, rows, 1024))])


def render_csv(header, *columns):
    """CSV text: the header line, then a line per row of the cell columns."""
    parts = [p for c in columns for p in (c, b",")]
    return table_text(*parts[:-1], b"\n", head=",".join(header) + "\n")
