"""On-disk formats for complex fields: binary dumps and per-slice CSV export.

Binary layout: magic "LAF1", three little-endian u32 (N, N, Mz), six
little-endian f64 bounds (x_min, x_max, y_min, y_max, z_min, z_max), then
the samples as little-endian f64 pairs (re, im) with iz slowest and ix
fastest. The format is self-describing enough to rebuild the uniform grid.

CSV numbers are fixed-width and exact: "%+.16e" with a three-digit
exponent (``-4.4557412247288458e-003``), 24 bytes that parse back to the
same double.
"""

from __future__ import annotations

import functools
import os
import struct
from pathlib import Path

import numpy as np

from .fields import ComplexField, Grid3D

MAGIC = b"LAF1"
_HEADER = struct.Struct("<4sIII6d")


class LafFormatError(ValueError):
    """A binary field dump that is truncated or not in the LAF1 format."""


def write_field(field: ComplexField, path: str | Path) -> None:
    """Write a complex field to the binary dump format."""
    g = field.grid
    header = _HEADER.pack(
        MAGIC,
        g.nx,
        g.ny,
        g.nz,
        g.x_min,
        g.x_max,
        g.y_min,
        g.y_max,
        float(g.z_nodes[0]),
        float(g.z_nodes[-1]),
    )
    # iz-major, then iy, then ix: (nx, ny, nz) -> (nz, ny, nx); a little-endian
    # complex array holds each sample as its (re, im) pair of f64
    ordered = np.ascontiguousarray(field.values.transpose(2, 1, 0), dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(ordered)


def read_field(path: str | Path) -> ComplexField:
    """Read a binary field dump, rebuilding its uniform grid."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise LafFormatError(f"{path}: truncated header")
        magic, nx, ny, nz, x0, x1, y0, y1, z0, z1 = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise LafFormatError(f"{path}: bad magic {magic!r}")
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != 16 * nx * ny * nz:
            raise LafFormatError(f"{path}: expected {16 * nx * ny * nz} bytes, got {size}")
        # slab by slab into the (nx, ny, nz) C-order array that ComplexField keeps,
        # so that no second copy of the samples is made
        values = np.empty((nx, ny, nz), dtype=complex)
        slab = np.empty((ny, nx), dtype="<c16")
        for iz in range(nz):
            fh.readinto(slab)
            values[:, :, iz] = slab.T
    try:
        grid = Grid3D(
            x_min=x0, x_max=x1, y_min=y0, y_max=y1,
            nx=nx, ny=ny, z_nodes=np.linspace(z0, z1, nz),
        )
        return ComplexField(grid, values)
    except ValueError as exc:  # header or samples outside the format's domain
        raise LafFormatError(f"{path}: {exc}") from exc


# --- exact fixed-width number text ------------------------------------------

NUMBER_WIDTH = 24  # sign, 17 significant digits and '.', 'e', exponent sign, 3 digits
_CSV_HEADER = b"x,y,re,im\r\n"
_ROW = 4 * NUMBER_WIDTH + 3 + 2  # four numbers, three commas, CRLF

# |v| in [1e-280, 1e280] is scaled to 17 digits by 10**p with p in this range,
# where the head and tail of every power and every product are normal doubles
_P_MIN, _P_MAX = -266, 298
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
_TIE = 1e-6  # a scaled fraction this close to .5 is left to Python's formatter


def _words(texts) -> np.ndarray:
    """Four-byte texts as one uint32 each, so a gather moves whole words."""
    return np.frombuffer("".join(texts).encode(), dtype=np.uint32)


@functools.cache
def _text_words() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The 24 bytes of a number are six words, looked up in these tables (built
    on first use): sign, first digit, '.' and second digit; three words of four
    digits; the last three digits and 'e'; the exponent's sign and three digits."""
    return (_words(f"{s}{i // 10}.{i % 10}" for s in "+-" for i in range(100)),
            _words(f"{i:04d}" for i in range(10000)),
            _words(f"{i:03d}e" for i in range(1000)),
            _words(f"{e:+04d}" for e in range(-999, 1000)))


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, np.ndarray]:
    """10**p = head + tail as a double-double for p in [_P_MIN, _P_MAX]; both
    parts are rounded once from exact integers (int true division rounds
    correctly)."""
    head, tail = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        h = num / den
        n, d = h.as_integer_ratio()
        head.append(h)
        tail.append((num * d - n * den) / (den * d))
    head, tail = np.array(head), np.array(tail)
    head.flags.writeable = tail.flags.writeable = False  # shared by every call
    return head, tail


def _scaled(a: np.ndarray, e10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - e10) as the unevaluated sum prod + err, prod the rounded
    product with the double-double power's head.

    err is the Dekker two-product's exact error plus the tail's share; the sum
    is within about 1e-14 of the exact product.
    """
    head, tail = (table[16 - e10 - _P_MIN] for table in _powers_of_ten())
    prod = a * head
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    c = _SPLIT * head
    h_hi = c - (c - head)
    h_lo = head - h_hi
    err = ((a_hi * h_hi - prod) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo + a * tail
    return prod, err


def _python_number_text(x: float) -> bytes:
    mantissa, exponent = ("%+.16e" % x).split("e")
    return f"{mantissa}e{exponent[0]}{exponent[1:]:0>3}".encode()


def number_text(values: np.ndarray) -> np.ndarray:
    """Each finite double as the bytes of ``"%+.16e" % v`` with its exponent
    widened to three digits; shape (values.size, NUMBER_WIDTH), uint8.

    The 17 digits are computed in numpy; Python formats only the entries the
    double-double product cannot decide: a scaled fraction within 1e-6 of .5
    and magnitudes outside [1e-280, 1e280] other than zero.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    zero = a == 0
    scaled = (a >= 1e-280) & (a <= 1e280)
    a = np.where(scaled, a, 1.0)
    e10 = np.floor(np.log10(a)).astype(np.int64)
    prod, err = _scaled(a, e10)
    # next to a power of ten log10 can be one off: redo those entries one decade over
    for step, idx in ((-1, np.flatnonzero((prod - 1e16) + err < 0)),
                      (1, np.flatnonzero((prod - 1e17) + err >= 0))):
        e10[idx] += step
        prod[idx], err[idx] = _scaled(a[idx], e10[idx])
    whole = np.floor(err)
    frac = err - whole
    # prod >= 1e16 > 2**53 is an integer
    digits = prod.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = digits == 10**17  # 9.99...9|6 rounds up into the next decade
    digits[carry] = 10**16
    e10[carry] += 1
    python = ~(scaled | zero) | (np.abs(frac - 0.5) < _TIE)
    digits[zero] = 0
    e10[zero] = 0

    lead_words, quad_words, triple_e_words, exponent_words = _text_words()
    words = np.empty((v.size, 6), dtype=np.uint32)
    lead = digits // 10**15
    words[:, 0] = lead_words[lead + 100 * np.signbit(v)]
    rest = digits - lead * 10**15  # 15 digits
    high = rest // 10**7
    low = rest - high * 10**7
    quad = high // 10**4
    words[:, 1] = quad_words[quad]
    words[:, 2] = quad_words[high - quad * 10**4]
    quad = low // 10**3
    words[:, 3] = quad_words[quad]
    words[:, 4] = triple_e_words[low - quad * 10**3]
    words[:, 5] = exponent_words[e10 + 999]
    out = words.view(np.uint8)
    for i in np.flatnonzero(python):
        out[i] = np.frombuffer(_python_number_text(float(v[i])), dtype=np.uint8)
    return out


def export_slices_csv(field: ComplexField, directory: str | Path, stem: str) -> list[Path]:
    """Write one CSV per z-slice with columns x, y, re, im.

    Rows are ix-major and CRLF-terminated, as the csv module writes them,
    with every number in number_text's form: each row is 101 bytes, each
    file 11 + 101 * N^2, and every value parses back to the same double.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    g = field.grid
    # the header, then one (nx, ny) block of rows whose x and y columns,
    # commas and line ends are filled once; re and im are refilled per slice
    buf = np.empty(len(_CSV_HEADER) + g.nx * g.ny * _ROW, dtype=np.uint8)
    buf[:len(_CSV_HEADER)] = np.frombuffer(_CSV_HEADER, dtype=np.uint8)
    rows = buf[len(_CSV_HEADER):].reshape(g.nx, g.ny, _ROW)
    w = NUMBER_WIDTH
    rows[:, :, :w] = number_text(g.x_coords())[:, None]
    rows[:, :, w + 1:2 * w + 1] = number_text(g.y_coords())[None, :]
    rows[:, :, [w, 2 * w + 1, 3 * w + 2]] = ord(",")
    rows[:, :, 4 * w + 3:] = np.frombuffer(b"\r\n", dtype=np.uint8)
    rows = rows.reshape(g.nx * g.ny, _ROW)
    plus_zero = number_text(np.zeros(1))
    paths = []
    for iz in range(g.nz):
        slab = field.values[:, :, iz].ravel()  # ix-major
        # a real slab (every xi dump's: each imaginary part has +0.0's all-zero bits)
        # formats its re column and takes one +0.0 for im; any other, its (re, im) pairs
        real = not slab.imag.view(np.uint64).any()
        text = number_text(slab.real if real else slab.view(np.float64)).reshape(-1, 2 - real, w)
        rows[:, 2 * w + 2:3 * w + 2] = text[:, 0]
        rows[:, 3 * w + 3:4 * w + 3] = plus_zero if real else text[:, 1]
        path = directory / f"{stem}_z{iz:03d}.csv"
        with open(path, "wb") as fh:
            fh.write(buf)
        paths.append(path)
    return paths
