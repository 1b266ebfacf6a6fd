"""The one CSV writer and its numpy ``%.9g`` encoder.

``write_csv`` writes the trajectory CSV of ``simulate``, row by row, and
the ``staircase.csv`` of ``bound``, run by run: column ``t``, then the
named columns, every value as Python's ``"%.9g" % v``, LF endings.  Only
the modules that write CSV import it.
"""

from __future__ import annotations

import numpy as np

_CSV_ROWS = 512                         # t values formatted at a time on the run path


def write_csv(path, times: np.ndarray, columns: dict[str, np.ndarray], starts=None) -> None:
    """The one CSV writer: column ``t``, then ``prefix_1..prefix_k`` for each
    ``prefix -> (rows, k)`` array; ``%.9g`` values, LF endings.  The arrays
    hold a row per time, encoded ``_CSV_CELLS`` cells at a time, or, given
    ``starts`` (the first row of each run of one tail: a staircase's dwells),
    a row per run, formatted once and joined with the run's ``t`` values,
    which are formatted ``_CSV_ROWS`` at a time by one ``%``."""
    header = ["t"] + [f"{prefix}_{i + 1}" for prefix, block in columns.items()
                      for i in range(block.shape[1])]
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\n")
        if starts is None:
            chunk = max(1, _CSV_CELLS // len(header))
            fh.writelines(_encode(np.hstack([times[r0:r0 + chunk, None],
                                             *(c[r0:r0 + chunk] for c in columns.values())]))
                          for r0 in range(0, times.shape[0], chunk))
            return
        tail_fmt = b",%.9g" * (len(header) - 1) + b"\n"
        rows = np.hstack([np.empty((len(starts), 0)), *columns.values()]).tolist()
        tails = [tail_fmt % tuple(row) for row in rows]
        # every block start cuts a run, so no piece crosses a block
        cuts = sorted({*starts.tolist(), *range(0, times.shape[0], _CSV_ROWS)})
        runs = (np.searchsorted(starts, cuts, "right") - 1).tolist()
        for lo, hi, run in zip(cuts, [*cuts[1:], times.shape[0]], runs):
            r = lo % _CSV_ROWS
            if r == 0:
                block = times[lo:lo + _CSV_ROWS].tolist()
                ts = ((b"%.9g\n" * len(block)) % tuple(block)).split(b"\n")
            fh.write(tails[run].join(ts[r:r + hi - lo]) + tails[run])


# The "%.9g" encoder.  Each cell is written into a 32-byte slot: the nine
# integer digits right-aligned in bytes 6..14 (a "-" just before the first
# one kept), the point in byte 15 and twelve fraction digits left-aligned in
# bytes 16..27, then, right after the last fraction digit kept (or over the
# point when none is), "e", the exponent's sign and two digits for scientific
# notation, and the separator.  A cell's bytes are thus the one run
# [begin, end] of its slot, and a keep-mask per (begin, end) compacts the
# slots with one boolean index.
_CSV_CELLS = 5_000                      # cells per encoder call: bounds its temporaries
_SLOT = 32
# the rounding error of y = |v| 10^k is at most 2^-24 for y < 2^30, so a
# fraction of y this close to .5 may round the other way from the exact product
_TIE_TOL = 2.0 ** -22
# floor(log10) of a positive double lies in [-324, 308]; a carry adds one
_E_LO, _E_HI = -324, 309


def _csv_tables():
    """Lookup tables of the encoder, indexed by the decimal exponent
    ``e - _E_LO``, by a 4-digit group or by ``begin * _SLOT + end``."""
    e = np.arange(_E_LO, _E_HI + 1)
    # |v| * num / den is |v| 10^(8 - e), one correctly rounded operation with
    # the exact powers 10^0..10^22; NaN beyond them sends the cell to the fallback
    pow10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])
    k = 8 - e
    power = pow10.take(np.minimum(np.abs(k), 22))
    num = np.where(np.abs(k) <= 22, np.where(k >= 0, power, 1.0), np.nan)
    den = np.where(k < 0, power, 1.0)
    # per exponent: scientific or not, fraction digits before trailing zeros
    # go, integer digits, and the exponent's four bytes
    sci = (e < -4) | (e >= 9)
    frac_digits = np.where(sci, 8, 8 - e)
    nint = np.where(sci | (e < 0), 1, np.minimum(e + 1, 9))
    exp = np.stack([np.full(e.size, ord("e")), np.where(e < 0, ord("-"), ord("+")),
                    48 + abs(e) // 10 % 10, 48 + abs(e) % 10], axis=1).astype(np.uint8)
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T    # row g: g's digits
    digits4 = np.ascontiguousarray(48 + digits).view("<u4").ravel()
    # fraction digits up to the last nonzero one of a group at offset 0, 4 or 8
    last = ((digits > 0) * np.arange(1, 5, dtype=np.uint8)).max(axis=1)
    last = np.where(last > 0, last + np.array([[0], [4], [8]], dtype=np.uint8), 0)
    pos = np.arange(_SLOT)
    keep = ((pos >= pos[:, None])[:, None] & (pos <= pos[:, None])).reshape(-1, _SLOT)
    return (num, den, sci, frac_digits, nint, exp, np.int64(10) ** np.arange(13),
            digits4, last, keep)


(_NUM, _DEN, _SCI, _FRAC_DIGITS, _NINT, _EXP, _IPOW10, _DIGITS4, _LAST,
 _KEEP) = _csv_tables()


def _encode(block: np.ndarray) -> bytes:
    """The bytes of ``",".join("%.9g" % v for v in row) + "\\n"`` for each
    row of the 2-D float64 ``block``.

    With e = floor(log10|v|), ``y = |v| 10^(8 - e)`` is one correctly rounded
    product or quotient while ``|8 - e| <= 22``, and ``rint(y)`` is then the
    9-digit mantissa of ``%.9g`` (10^9 carries into the exponent) unless y
    lies outside [10^8, 10^9], where ``np.log10`` was off by one, or its
    fraction is within ``_TIE_TOL`` of .5.  Such cells, non-finite ones and
    those outside the exact powers (subnormals among them) are formatted with
    ``%`` and spliced in; zeros take the fast path."""
    rows, cols = block.shape
    v = block.ravel()
    neg = np.signbit(v)
    a = np.abs(v)
    zero = a == 0.0
    finite = np.isfinite(a) & ~zero
    a = np.where(finite, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64) - _E_LO
    y = a * _NUM.take(k) / _DEN.take(k)
    fast = finite & (y >= 1e8) & (y <= 1e9) & (np.abs(y - np.floor(y) - 0.5) > _TIE_TOL)
    m = np.rint(np.where(fast, y, 0.0)).astype(np.int64)
    carry = m == 10 ** 9
    m[carry] = 10 ** 8
    k += carry
    # integer part and fraction, the fraction scaled to 12 digits
    frac_digits = _FRAC_DIGITS.take(k)
    p = _IPOW10.take(frac_digits)
    i = m // p
    f = (m - i * p) * _IPOW10.take(12 - frac_digits)
    i0 = i // 10 ** 8
    i -= i0 * 10 ** 8
    i1 = i // 10 ** 4
    i2 = i - i1 * 10 ** 4
    f0 = f // 10 ** 8
    f -= f0 * 10 ** 8
    f1 = f // 10 ** 4
    f2 = f - f1 * 10 ** 4
    # 4-digit groups as little-endian words: the point is the top byte of the
    # word at 12..15, written before the integer words at 3..6, 7..10, 11..14
    slots = np.empty((v.size, _SLOT), dtype=np.uint8)
    words = slots.view("<u4")
    words[:, 3] = ord(".") << 24
    ints = np.ndarray((v.size, 3), dtype="<u4", buffer=slots, offset=3, strides=(_SLOT, 4))
    ints[:, 0] = (48 + i0) << 24
    ints[:, 1] = _DIGITS4.take(i1)
    ints[:, 2] = _DIGITS4.take(i2)
    words[:, 4] = _DIGITS4.take(f0)
    words[:, 5] = _DIGITS4.take(f1)
    words[:, 6] = _DIGITS4.take(f2)
    nfrac = np.maximum(np.maximum(_LAST[0].take(f0), _LAST[1].take(f1)), _LAST[2].take(f2))
    begin = 15 - _NINT.take(k) - neg
    end = 15 + nfrac + (nfrac > 0)
    flat = slots.reshape(-1)
    base = np.arange(0, flat.size, _SLOT)
    sci = np.flatnonzero(fast & _SCI.take(k))
    if sci.size:
        flat[(base[sci] + end[sci])[:, None] + np.arange(4)] = _EXP[k[sci]]
        end[sci] += 4
    fallback = np.flatnonzero(~(fast | zero))
    begin[fallback] = end[fallback] = 15
    minus = np.flatnonzero(neg)
    flat[base[minus] + begin[minus]] = ord("-")
    sep = np.full((rows, cols), ord(","), dtype=np.uint8)
    sep[:, -1] = ord("\n")
    flat[base + end] = sep.ravel()
    out = slots[_KEEP.take(begin * _SLOT + end, axis=0)].tobytes()
    if not fallback.size:
        return out
    sizes = end + 1 - begin
    at = (np.cumsum(sizes) - sizes)[fallback].tolist()
    parts = []
    for lo, hi, value in zip([0, *at], at, v[fallback].tolist()):
        parts += [out[lo:hi], b"%.9g" % value]
    parts.append(out[at[-1]:])
    return b"".join(parts)
