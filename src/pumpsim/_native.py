"""The two compiled loops of ``pumpsim.dynamics``, its RK4 loop and its row
writer, and the choice between each and its Python twin: ``_rk4.c`` built
by the system C compiler and loaded by ctypes behind the signatures of the
twins (``build``), and the choice of each loop that matches its twin on a
probe (``select``).
``dynamics._library`` imports this module on first use.  Its code lives
apart from ``dynamics`` because each process compiles pumpsim's sources
where no bytecode cache is written, and a command that never loads the
library should not pay for it.
"""

from __future__ import annotations

import ctypes
import io
import math
import os
import shutil
import subprocess
import tempfile

import numpy as np

_BOUNDS = 4  # pumpsim_rk4's status of a column outside the rows
_VALUE_BYTES = 32  # buffer bytes per value, _rk4.c's VALUE_BYTES


def _pow10() -> np.ndarray:
    """``10**(11 - e)`` by ``b = e + 308``, 0 past the double range: the
    factor that scales a value of decimal exponent ``e`` to 12 digits in
    ``pumpsim_format_rows``."""
    return np.array([float(f"1e{11 - k}") if k > -298 else 0.0
                     for k in range(-308, 309)])


def build():
    """``(lanes, write_rows)``: ``_rk4.c``'s RK4 loop and row writer behind
    the signatures of their Python twins ``dynamics._chunk_lanes`` and
    ``dynamics._write_rows``, or None where ``cc`` is missing or fails or
    the library does not load.  The row writer writes whole rows in C; a
    row that the C hands back, one that holds a value its digit arithmetic
    cannot prove, is written by ``dynamics._write_rows``.

    The library is built into a private temporary directory, deleted once
    it is loaded, so there is no cache to go stale.  Contraction into fused
    multiply-adds stays off and ``-ffast-math`` is not given, so that each
    operation rounds as Python's does."""
    from .dynamics import _write_rows

    source = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "_rk4.c")
    directory = tempfile.mkdtemp(prefix="pumpsim-rk4-")
    try:
        library = os.path.join(directory, "_rk4.so")
        # -O1: the loops ran as fast as at -O2, which took 50-70 ms more to
        # build
        subprocess.run(["cc", "-O1", "-fPIC", "-shared", "-ffp-contract=off",
                        "-o", library, source, "-lm"],
                       stdin=subprocess.DEVNULL, capture_output=True,
                       check=True, timeout=120)
        library = ctypes.CDLL(library)
        rk4 = library.pumpsim_rk4
        format_rows = library.pumpsim_format_rows
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    doubles = ctypes.POINTER(ctypes.c_double)
    int64s = ctypes.POINTER(ctypes.c_int64)
    rk4.argtypes = [doubles, doubles, int64s, int64s, int64s, ctypes.c_int64,
                    ctypes.c_int64, ctypes.c_int64, int64s, ctypes.c_int64,
                    ctypes.c_double, doubles, doubles, doubles, doubles,
                    ctypes.c_int64]
    rk4.restype = ctypes.c_int
    format_rows.argtypes = [ctypes.POINTER(ctypes.c_void_p), ctypes.c_int64,
                            ctypes.c_int64, doubles, int64s,
                            ctypes.POINTER(ctypes.c_char), ctypes.c_int64]
    format_rows.restype = ctypes.c_int64
    coef_type = ctypes.c_double * 7

    def address(a, dtype=np.float64, ndim=1, pointer=doubles):
        if not (isinstance(a, np.ndarray) and a.dtype == dtype
                and a.ndim == ndim and a.flags.c_contiguous
                and a.flags.writeable):
            raise TypeError(f"arrays must be writeable contiguous {ndim}-d "
                            f"{np.dtype(dtype).name} arrays")
        return a.ctypes.data_as(pointer)  # holds a, as long as it is held

    def lanes(coef, n, q, halted, clamps, at, cursor, src, out_n, out_q,
              stride):
        # what stays fixed through a binding, converted once
        n_lanes, n_out = out_q.shape
        if not (len(n) == len(q) == len(halted) == len(clamps) == len(at)
                == len(src) == n_lanes and len(cursor) == 2
                and (out_n is None or out_n.shape == out_q.shape)):
            raise ValueError("one state, halt, clamp count, stop, source and "
                             "row per lane, and one cursor")
        head = (address(n), address(q), *[address(a, np.int64, 1, int64s)
                                          for a in (halted, clamps, at)],
                n_lanes)
        record = (address(cursor, np.int64, 1, int64s), stride)
        tail = (address(src), coef_type(*coef),
                None if out_n is None else address(out_n, ndim=2),
                address(out_q, ndim=2), n_out)

        def step(k, k_stop, h):
            if rk4(*head, k, k_stop, *record, h, *tail) == _BOUNDS:
                raise IndexError(f"a sample of steps {k} to {k_stop} is "
                                 f"outside the {n_out} samples of the record")

        return step

    pow10 = _pow10().ctypes.data_as(doubles)  # holds the array

    def write_rows(fh, columns, block):
        n_cols, n_rows = len(columns), len(columns[0])
        columns = [np.ascontiguousarray(c, dtype=np.float64) for c in columns]
        pointers = (ctypes.c_void_p * n_cols)(*[c.ctypes.data
                                                for c in columns])
        cap = max(block, 1) * n_cols * _VALUE_BYTES
        buf = ctypes.create_string_buffer(cap)
        view = memoryview(buf).cast("B")
        row = ctypes.c_int64(0)
        while row.value < n_rows:
            start = row.value
            fh.write(view[:format_rows(pointers, n_cols, n_rows, pow10, row,
                                       buf, cap)])
            if row.value == start:  # handed back: its twin writes the row
                _write_rows(fh, [c[start:start + 1] for c in columns], 1)
                row.value = start + 1

    return lanes, write_rows


def select(compiled, twins) -> tuple:
    """``(lanes, write_rows)``: each loop of ``compiled`` (``build``'s) where
    its probe gives what its twin's does, else that twin of ``twins``; the
    twins where nothing built.  Each probe holds a loop to its twin bit for
    bit: the RK4 loop on ``dynamics._probe_lanes`` and the row writer on
    ``probe_rows``."""
    from .dynamics import _probe_lanes

    if compiled is None:
        return tuple(twins)
    return tuple(loop if probe(loop) == probe(twin) else twin
                 for loop, twin, probe in zip(compiled, twins,
                                              (_probe_lanes, probe_rows)))


def probe_rows(write_rows) -> list:
    """The bytes that ``write_rows`` writes for a table of 3 columns, 1 and 2
    rows per block.  The first column holds, in both signs, zero, values in
    fixed and exponent notation with 2- and 3-digit exponents, exact ties,
    near-ties whose scaled digits round onto a tie, and one of each kind of
    value that the digit arithmetic cannot prove, whose rows the C hands
    back.  The others come in runs of both signs, so that some rows repeat
    the one above, across a block's end too, and one row that the C writes
    differs from the one above only in the sign of a zero.  The table is two
    of 54 rows, the second column's values proven in the first and handed
    back in the second, so that the C writes rows whole and copies some, and
    takes others back after their first or first two values."""
    back = [2.5e-310, math.nan, math.inf, 9.999999999996e-298,
            # ties under an inexact factor, two a decade past the exact ones
            12345678901250000.0, 1719998637485.0, 5.990338549635e-12,
            # digits that round up to 1e12, the second from a tie
            9.9999999999996e-06, 999999999999.5]
    proven = [0.0, 1.5e-4, 123456789012.0, 0.000999999999999, 99999999999.95,
              1e12, 6.02214076e23, 1e-100, 3.5e-250, 1e200, 2.0 ** 52,
              1.0 / 3.0,
              # ties, printed half to even, and near-ties, printed away
              3 * 2.0 ** -17, 1234567890.125, 32.01162994575, 17.70842504295,
              0.0001770842504295, 31.31294559365]
    lead = proven + back
    lead += [-v for v in lead]
    proven, back = ([w for v in vs for w in (v, -v)] for vs in (proven, back))
    columns = [lead * 2, [proven[k // 3 % len(proven)]
                          for k in range(len(lead))]
               + [back[k // 3 % len(back)] for k in range(len(lead))],
               [lead[k // 2] for k in range(len(lead))] * 2]
    written = []
    for block in (1, 2):
        fh = io.BytesIO()
        write_rows(fh, [np.array(c) for c in columns], block)
        written.append(fh.getvalue())
    return written
