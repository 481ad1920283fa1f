"""Backward characteristic flow driven by a prescribed order-parameter path.

Given a complex path z(t) = R(t) e^{i phi(t)} on the time grid, the phase
label theta of an oscillator with natural frequency omega is transported by
the backward flow that settles onto the free rotation theta + omega t as
t -> t_max.  We work with the deviation

    D(t, theta, omega) = Theta(t, theta, omega) - theta - omega t,

which satisfies the fixed-point relation

    D(t) = mu * Int_t^{t_max} R(s) sin(theta + omega s + D(s) - phi(s)) ds
         = mu * Im( e^{i theta} Int_t^{t_max} conj(z(s)) e^{i D(s)} e^{i omega s} ds ).

The s-integral is discretized by interpolating the slowly varying factor
c(s) = conj(z(s)) e^{i D(s)} linearly on each cell and integrating it against
the oscillation e^{i omega s} exactly.  The resulting cell weights alpha and
beta are bounded by 1/2 in modulus for every omega, which keeps the discrete
map (a) second-order accurate uniformly in omega and (b) a contraction with
at most the continuum factor, so the estimates certified at runtime are
meaningful on the grid and not just in the limit.

A classical Runge-Kutta integration of the same characteristic equation,
sub-stepped so the phase advance omega * h stays small on every column,
serves as the independent route for cross-validation.  It integrates the
Moebius form of the flow: e^{i(theta + omega t + D)} is a Moebius image of
e^{i theta}, whose 2x2 matrix obeys a linear equation that does not
depend on theta, so the route steps one matrix per frequency column and
shares no numerical code with the cell-weight quadrature.

Every e^{iD} of the cell-weight route is 1 + (cos D - 1) + i sin D, each
part with full relative precision long after |D| has dropped below the
rounding unit, which is what lets weighted Cauchy increments be resolved
down to 1e-10 and beyond.  The pair comes from one phase kernel
(``phase_kernel``), picked per time tile from the sup|D| of the tile's
rows (``tile_kernels``): Taylor polynomials D^2 Q_k(D^2) and D P_k(D^2)
whose number of terms k is the smallest that puts the truncation below
the rounding unit (a few multiply-adds per cell, fewer on the decayed
late tiles), and (-2 sin^2(D/2), sin D) above sup|D| = 1.  The sweep,
gamma_field and the order-parameter quadrature (``phase_quadrature``)
share that kernel and one e^{i omega t} table (``oscillation_table``),
and it is the package's only map to e^{iX} - 1: the density
reconstruction takes each higher mode's e^{ikD} - 1 from the kernel of kD
by the same per-tile rule.

Every loop over a field walks the same time tiles (``time_tiles``) and
splits into parts that run side by side, with one walker per split
axis, which allocates every part's scratch, runs the parts and calls
one function per tile: ``_integral_parts`` splits the angle axis of the
backward integral (the sweep and gamma_field), whose columns are
independent, and ``in_row_parts`` splits every tile's rows for the loops
that reduce over angles (``row_gaps``, ``phase_quadrature``, the
oracle's 2 arg N).  No other module cuts tiles or parts.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field

import numpy as np

from .norms_grids import Grid, WeightSpec, weighted_norm
from .spectral_state import real

__all__ = [
    "NonContractiveError",
    "MaxSweepsExceededError",
    "StepRejectedError",
    "CharacteristicField",
    "ContractionReport",
    "filon_weights",
    "deviation_sweep",
    "picard_sweep",
    "solve_fixed_point",
    "backward_ode_oracle",
    "gamma_field",
]

# cells per time-row tile: each complex tile slab stays near 2 MB
_TILE_CELLS = 1 << 17
# largest sup|D| at which phase_kernel takes Taylor polynomials; there it
# needs 9 terms, still cheaper per cell than np.sin, and above it the trig
# form (-2 sin^2(D/2), sin D) serves
_POLY_CAP = 1.0
# Taylor coefficients of (cos D - 1) / D^2 and sin D / D in powers of D^2;
# entry k is the first term omitted when k terms are kept, and 9 terms
# reach the cap
_COS_M1_OVER_D2 = tuple((-1) ** (k + 1) / math.factorial(2 * k + 2) for k in range(10))
_SIN_OVER_D = tuple((-1) ** k / math.factorial(2 * k + 1) for k in range(10))
# the RK4 oracle's cap on sub-steps per cell, also the finest particle time
# step the command line accepts relative to the grid's
MAX_SUBSTEPS = 4096
# sweeps solve_fixed_point runs before it refuses a stalled residual
MAX_SWEEPS = 60
# parts every heavy field loop splits into: one per CPU this process may
# run on, fewer when the axis being split is shorter
_PARTS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# runs parts 1 .. P - 1 of those loops (part 0 runs on the calling thread);
# its threads start on the first hand-off, so one CPU never starts one
_POOL = ThreadPoolExecutor(max_workers=max(1, _PARTS - 1), thread_name_prefix="kuramoto-part")
# elements of numpy's ufunc buffer while a part runs: a broadcasting product
# allocates one per call, and P parts hold P at once; at numpy's default
# (8192) that is 128 KB per part beside its slabs, at this size 16 KB
_PART_BUFFER = 1024


class NonContractiveError(RuntimeError):
    """Predicted sweep gain >= 1; the Picard iteration would not converge."""

    def __init__(self, bound: float):
        super().__init__(f"contraction bound {bound:.6g} >= 1")
        self.bound = bound


class MaxSweepsExceededError(RuntimeError):
    """Residual failed to reach tolerance within the sweep budget."""


class StepRejectedError(RuntimeError):
    """The RK4 oracle cannot take the steps asked of it.

    Either a frequency column demands more sub-steps than the refinement
    cap, or the a priori phase bound reaches 2 pi, where 2 arg N may leave
    the branch of the deviation.
    """


@dataclass(frozen=True, eq=False)
class CharacteristicField:
    """Deviation field D on the (time, angle, frequency) grid, plus context.

    A field returned by ``picard_sweep`` or ``solve_fixed_point`` carries
    the sup over each time row of |D|, taken by the sweep that wrote D
    while each tile was in cache (for a zero field, the sups of zero
    rows), so ``sup`` and ``deviation_norm`` read no field.  A field built
    from an array takes them from the field on every call.  An array
    passed to a later sweep as ``out`` is rewritten, and a field object
    that still holds it no longer describes it.
    """

    grid: Grid
    deviation: np.ndarray
    mu: float
    # the carried row sups, bit for bit those row_gaps() takes, or None
    _rows: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.deviation.shape != self.grid.shape():
            raise ValueError(
                f"deviation shape {self.deviation.shape} != grid shape {self.grid.shape()}"
            )

    def deviation_norm(self, weight: WeightSpec) -> float:
        """||D|| in the deviation weight, from the field's row sups.

        The row sups are the max(max, -min) that ``weighted_norm`` takes of
        the whole field, so the norm is the same number, zero's sign
        included.
        """
        return float(np.max(weight.deviation_values(self.grid.times()) * self.row_sups()))

    def sup(self) -> float:
        return float(self.row_sups().max())

    def row_sups(self) -> np.ndarray:
        """sup |D| over each time row: the carried sups, or one pass over D."""
        return row_gaps(self.deviation) if self._rows is None else self._rows

    def sup_distance(self, other: "CharacteristicField") -> float:
        """sup |D - D_other|, one time tile at a time; NaN propagates.

        A field on a grid of another shape is refused (ValueError).
        """
        return float(row_gaps(self.deviation, other.deviation).max())


@dataclass
class ContractionReport:
    """Record of one fixed-point solve: residual trail and certified gain.

    ``ratios`` are successive residual quotients, recorded only while the
    previous residual sits above ``floor`` (quotients of rounding noise say
    nothing about the map).  ``bound`` is the a priori gain
    mu * ||R|| * unit_contraction_gain that every recorded ratio is checked
    against downstream.  ``tail_remainder`` certifies the truncated
    s-integral beyond t_max.

    ``tile_terms`` counts the tiles, of one angle part each, that the
    sweeps swept with a kernel, by its Taylor terms (the kernel's
    ``terms``; a sweep from D = 0 reports none), and ``tiles_skipped`` the
    tiles of one part each that a solve's sweeps left out
    (``deviation_sweep``'s tails), so the two add up to the part-tiles of
    every sweep not from zero.  Both are for the log:
    they depend on the part count and stay out of the ledger entry.
    """

    bound: float
    sweeps: int = 0
    residuals: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    converged: bool = False
    tol: float = 0.0
    floor: float = 0.0
    tail_remainder: float = 0.0
    tile_terms: Counter = field(default_factory=Counter, compare=False, repr=False)
    tiles_skipped: int = field(default=0, compare=False, repr=False)

    def ledger_entry(self) -> dict:
        """The report as the ledger records it, without the tile counts."""
        entry = asdict(self)
        del entry["tile_terms"], entry["tiles_skipped"]
        return entry


def filon_weights(w):
    """Cell weights for Int_0^1 (1-tau) e^{i w tau} dtau and its tau twin.

    Closed form via the first two oscillatory moments; a 12-term series
    takes over below |w| = 0.8 where the closed form loses digits.  Both
    weights have modulus <= 1/2 for all real w (they are averages of
    unimodular phases against the hat masses 1/2).
    """
    w = np.asarray(w, dtype=float)
    alpha = np.empty(w.shape, dtype=complex)
    beta = np.empty(w.shape, dtype=complex)
    small = np.abs(w) < 0.8
    wl = w[~small]
    iw = 1j * wl
    eiw = np.exp(iw)
    m0 = (eiw - 1.0) / iw
    m1 = eiw / iw - (eiw - 1.0) / (iw * iw)
    alpha[~small] = m0 - m1
    beta[~small] = m1
    ws = w[small]
    m0s = np.zeros(ws.shape, dtype=complex)
    m1s = np.zeros(ws.shape, dtype=complex)
    pw = np.ones(ws.shape, dtype=complex)
    for k in range(12):
        m0s += pw / math.factorial(k + 1)
        m1s += pw * (k + 1) / math.factorial(k + 2)
        pw = pw * (1j * ws)
    alpha[small] = m0s - m1s
    beta[small] = m1s
    return alpha, beta


def time_tiles(shape):
    """Row slices of a (time, angle, frequency) field, from t_max backward.

    Each tile is a run of whole time rows, so it is one contiguous piece of
    a C-ordered field, of at most _TILE_CELLS cells (one row if a row is
    larger); the tiles start at the last row, and the tile at t = 0 may be
    shorter.  Every tiled loop over a field walks these slices, so one
    constant bounds all per-tile working sets, and the backward integral
    carries its running sum from one tile to the next.  A loop split into
    parts still walks the whole field's tiles, each part its columns or
    its share of the rows of every tile, so the slabs of all parts
    together are the size of one loop's.
    """
    n_t = shape[0]
    rows = _tile_rows(shape)
    for hi in range(n_t, 0, -rows):
        yield slice(max(0, hi - rows), hi)


def _tile_rows(shape):
    n_t, n_th, n_omega = shape
    return min(n_t, max(1, _TILE_CELLS // (n_th * n_omega)))


def part_count(n):
    """Parts a loop over an axis of length ``n`` splits into.

    One per CPU in the process's affinity mask, read at import, and at
    most ``n``, so no part is empty.
    """
    return max(1, min(_PARTS, n))


def row_shares(shape):
    """(parts, share) of a loop that splits every tile of ``shape`` by rows.

    The first tile, at t_max, is the largest; each of ``parts`` parts takes
    at most ``share`` of every tile's rows (``split`` of the tile's rows),
    so the parts' slabs add up to less than that tile's rows plus one share.
    """
    rows = _tile_rows(shape)
    share = -(-rows // part_count(rows))
    return -(-rows // share), share


def split(lo, hi, parts):
    """``parts`` contiguous slices covering lo .. hi in order, sizes within one."""
    n = hi - lo
    return [slice(lo + n * k // parts, lo + n * (k + 1) // parts) for k in range(parts)]


def in_parts(work, parts):
    """work(p) for every p in range(parts), side by side.

    Part 0 runs on the calling thread, the others on the module's pool,
    overlapping wherever numpy releases the interpreter lock.  Every part
    has finished when this returns or raises, so no worker still touches a
    caller's array afterwards; a failure is re-raised, part 0's first.  A
    part must not call a split loop itself: the pool's workers would wait
    on each other.
    """
    futures = [_POOL.submit(_run_part, work, p) for p in range(1, parts)]
    try:
        _run_part(work, 0)
    finally:
        wait(futures)
    for f in futures:
        f.result()


def in_background(work, *args):
    """A future of work(*args), run on the module's pool beside the caller.

    The pool thread drops its references to ``work`` and ``args`` before
    the future is done.  With one part to every loop
    (``part_count(2) == 1``) it runs in place and returns a future that is
    already done, so no thread starts.  The caller must not write what
    ``work`` reads until the future is done, and must wait on it before it
    returns or raises.  Like a part, ``work`` must not call a split loop.
    """
    if part_count(2) == 1:
        done = Future()
        done.set_result(work(*args))
        return done
    return _POOL.submit(_call_emptied, [work, args])


def _call_emptied(call):
    # work(*args) for call = [work, args]; the list is emptied so the pool's
    # work item no longer reaches the arguments once this returns
    work, args = call
    call.clear()
    return work(*args)


def _run_part(work, p):
    # the buffer size is numpy's per-context setting, so this thread's alone;
    # it moves no result, since no part's arithmetic depends on it
    saved = np.setbufsize(_PART_BUFFER)
    try:
        return work(p)
    finally:
        np.setbufsize(saved)


def in_row_parts(shape, work, *scratch_shapes):
    """work(i, rows, *scratch) over every tile's rows, in row parts side by side.

    Each tile i of ``time_tiles(shape)`` is cut into the
    ``row_shares(shape)`` parts, and part p walks its share ``rows`` of
    every tile from t_max backward, with ``scratch`` the first len(rows)
    rows of its own float slabs, one of shape (share,) + s per entry s of
    ``scratch_shapes``, allocated here on the calling thread.  Where a
    row's work depends only on the row and its tile, the result is
    bit-identical for any part count.
    """
    tiles = list(time_tiles(shape))
    parts, share = row_shares(shape)
    slabs = [np.empty((parts, share) + tuple(s)) for s in scratch_shapes]

    def walk(p):
        for i, sl in enumerate(tiles):
            rows = split(sl.start, sl.stop, parts)[p]
            n = rows.stop - rows.start
            work(i, rows, *(slab[p, :n] for slab in slabs))

    in_parts(walk, parts)


def _row_sup(tile, out):
    # out[i] <- sup_i |tile[i]| through max and -min: exact, NaN-propagating,
    # and free of a tile-sized |tile| temporary
    np.maximum(tile.max(axis=(1, 2)), -tile.min(axis=(1, 2)), out=out)


@functools.cache
def _trig_interpolation(n_from, n_to):
    """The real (n_to, n_from) matrix of trigonometric interpolation.

    Row i evaluates at angle 2 pi i / n_to the interpolant of samples at
    the n_from angles 2 pi j / n_from (n_from even): the periodic sinc
    S(x) = (1 + 2 sum_{m < n_from/2} cos(m x) + cos(n_from x / 2)) / n_from,
    which reproduces every mode below n_from / 2 exactly.  The cosines take
    their angles modulo 2 pi in integers, and a row whose angle is a sample
    angle is that sample's unit row exactly, so the interpolant keeps the
    samples bit for bit.  Read-only, one per pair of counts.
    """
    period = n_from * n_to
    # x = 2 pi (i n_from - j n_to) / period
    steps = np.subtract.outer(np.arange(n_to) * n_from, np.arange(n_from) * n_to)
    half = n_from // 2
    sinc = np.ones((n_to, n_from))
    for m in range(1, half + 1):
        cos_mx = np.cos((2.0 * math.pi / period) * ((m * steps) % period))
        sinc += cos_mx if m == half else 2.0 * cos_mx
    sinc /= n_from
    on_sample = np.flatnonzero(np.arange(n_to) * n_from % n_to == 0)
    sinc[on_sample] = 0.0
    sinc[on_sample, on_sample * n_from // n_to] = 1.0
    sinc.flags.writeable = False
    return sinc


def row_gaps(a, b=None, n_theta=None, fine=None):
    """sup over each time row of |P(a - b) - fine|; NaN propagates.

    ``b`` (zero when None) is a field of a's shape, P the trigonometric
    interpolant (``_trig_interpolation``) from a's angles onto
    ``n_theta`` angles, and ``fine`` (zero when None) a field on those
    angles.  Where ``n_theta`` is None or a's own count, P is the identity
    and no product is taken: the row sups of |a|, |a - b| or |a - fine|.
    Otherwise a band-limited field on a coarser grid gives the theta-sups
    of the finer one without a finer field being held: each row is
    interpolated by one real (n_theta, n_coarse) matrix product into
    scratch.  The rows are walked by ``in_row_parts`` over the tiles of
    the finer shape, and a row's sup does not depend on its part.  A
    field of another shape is refused (ValueError).
    """
    coarse = a.shape
    shape = coarse if n_theta is None else (coarse[0], n_theta, coarse[2])
    for other, want in ((b, coarse), (fine, shape)):
        if other is not None and other.shape != want:
            raise ValueError(f"cannot compare a field of shape {want} with one of shape {other.shape}")
    interp = None if shape == coarse else _trig_interpolation(coarse[1], shape[1])
    # a - b goes to scratch of a's shape, P and - fine to one of the finer
    # shape; with P the identity both are one
    slabs = [coarse[1:]] if b is not None and interp is not None else []
    if b is not None or interp is not None or fine is not None:
        slabs.append(shape[1:])
    rows = np.empty(shape[0])

    def gaps(i, part, *scratch):
        gap = a[part]
        if b is not None:
            gap = np.subtract(gap, b[part], out=scratch[0])
        if interp is not None:
            gap = np.matmul(interp, gap, out=scratch[-1])
        if fine is not None:
            gap = np.subtract(gap, fine[part], out=scratch[-1])
        _row_sup(gap, rows[part])

    in_row_parts(shape, gaps, *slabs)
    return rows


def resample_angles(deviation, n_theta):
    """A field on a coarser angle grid, interpolated onto ``n_theta`` angles.

    One real (n_theta, n_coarse) matrix product per time row
    (``_trig_interpolation``): exact to rounding for a field whose angular
    modes lie below half the coarse count.
    """
    return np.matmul(_trig_interpolation(deviation.shape[1], n_theta), deviation)


def _taylor_terms(sup):
    """Terms k of each Taylor series phase_kernel keeps at sup|D| = sup.

    The smallest k for which both first omitted terms, D^{2k+2} / (2k+2)!
    of cos D - 1 and D^{2k+1} / (2k+1)! of sin D, are at most 2^-53
    relative to the leading terms D^2 / 2 and D at |D| = sup.  None above
    _POLY_CAP (NaN and inf included): the trig form serves there.
    """
    if not sup <= _POLY_CAP:
        return None
    s2 = sup * sup
    for k in range(1, len(_SIN_OVER_D)):
        omitted = max(2.0 * abs(_COS_M1_OVER_D2[k]), abs(_SIN_OVER_D[k])) * s2**k
        if omitted <= 2.0**-53:
            return k
    return None


def _horner(x, coeffs, out):
    # out <- coeffs[0] + coeffs[1] x + ... + coeffs[-1] x^(n-1), in place,
    # for n >= 2
    np.multiply(x, coeffs[-1], out=out)
    for c in coeffs[-2:0:-1]:
        out += c
        out *= x
    out += coeffs[0]


def phase_kernel(sup):
    """The map D -> (cos D - 1, sin D) for arrays with |D| <= ``sup``.

    Returns ``kernel(dev, cos_m1, sin_d, d2)``, which writes the pair of
    ``dev`` into ``cos_m1`` and ``sin_d``.  Up to _POLY_CAP the pair is
    D^2 Q_k(D^2) and D P_k(D^2) by Horner's rule, with k from
    ``_taylor_terms(sup)``, so the truncation stays below the rounding
    unit; ``d2`` is scratch for D^2.  At k = 1 that is -D^2 / 2 and D, one
    square, one scaling and one copy, bit for bit what Horner's rule gives
    there.  Above the cap it is (-2 sin^2(D/2), sin D).  Both forms keep
    full relative precision as D -> 0 and map 0 to 0.  One kernel is kept
    per term count, so the same count returns the same object, and the
    kernel carries that count as ``terms`` (None for the trig form).  The
    RK4 oracle does not use it.
    """
    k = _taylor_terms(sup)
    return _trig_phase if k is None else _taylor_kernel(k)


@functools.cache
def _taylor_kernel(k):
    # phase_kernel's Taylor form with k terms
    if k == 1:
        def taylor_phase(dev, cos_m1, sin_d, d2):
            np.multiply(dev, dev, out=cos_m1)
            cos_m1 *= _COS_M1_OVER_D2[0]
            np.copyto(sin_d, dev)
    else:
        cos_coeffs, sin_coeffs = _COS_M1_OVER_D2[:k], _SIN_OVER_D[:k]

        def taylor_phase(dev, cos_m1, sin_d, d2):
            np.multiply(dev, dev, out=d2)
            _horner(d2, cos_coeffs, cos_m1)
            cos_m1 *= d2
            _horner(d2, sin_coeffs, sin_d)
            sin_d *= dev

    taylor_phase.terms = k
    return taylor_phase


def _tile_sups(shape, rows):
    # the largest row sup of each tile of time_tiles(shape), NaN
    # propagating; ``rows`` may be one number, a bound for every row
    rows = np.broadcast_to(np.asarray(rows, dtype=float), shape[:1])
    return [float(rows[sl].max()) for sl in time_tiles(shape)]


def tile_kernels(shape, rows):
    """The phase kernel of each tile of ``time_tiles(shape)``, from its rows.

    ``rows`` holds sup|D| over each time row (one number bounds every
    row).  Each tile takes ``phase_kernel`` of its largest row sup: the
    trig form where that is NaN, inf or above _POLY_CAP, else the fewest
    Taylor terms the tile's own rows need: one on a tile of zero rows,
    where it writes cos D - 1 = -0.0 and sin D = D, so e^{iD} = 1
    exactly.  The choice reads only the tile's rows, so it does not
    depend on how a loop splits the field into parts.  Each kernel's
    ``terms`` counts its Taylor terms, None for the trig form.
    """
    return [phase_kernel(sup) for sup in _tile_sups(shape, rows)]


def _trig_phase(dev, cos_m1, sin_d, d2):
    np.multiply(dev, 0.5, out=cos_m1)
    np.sin(cos_m1, out=cos_m1)
    np.multiply(cos_m1, cos_m1, out=cos_m1)
    cos_m1 *= -2.0
    np.sin(dev, out=sin_d)


_trig_phase.terms = None


def oscillation_table(times, omega):
    """e^{i omega t} on the (time, frequency) grid, as a read-only array.

    Every time tile of every sweep, quadrature and gamma_field slices
    rows of this one table instead of rebuilding them.  One table is kept,
    keyed on the exact bytes of (times, omega), so a solve reuses it and
    any other node set replaces it; it is 2 / n_theta of a float64 field,
    mapped on its own, outside the malloc heap.
    """
    times = np.ascontiguousarray(times, dtype=float)
    omega = np.ascontiguousarray(omega, dtype=float)
    return _oscillation_table(times.tobytes(), omega.tobytes())


@functools.lru_cache(maxsize=1)
def _oscillation_table(times_bytes, omega_bytes):
    # np.exp(1j * np.outer(times, omega)), bit for bit (0 + x is the
    # imaginary part 1j * x has), formed in a mapping of its own: the first
    # solve on a grid builds the table between its fields, and a table kept
    # in the malloc heap, or its two table-sized temporaries, would move
    # where the heap places the next fields and raise the peak resident set
    times, omega = np.frombuffer(times_bytes), np.frombuffer(omega_bytes)
    table = np.frombuffer(mmap.mmap(-1, 16 * times.size * omega.size), dtype=complex)
    table = table.reshape(times.size, omega.size)
    np.multiply.outer(times, omega, out=table.imag)
    table.imag += 0.0
    table.real = 0.0
    np.exp(table, out=table)
    table.flags.writeable = False
    return table


def _real_halves(a):
    # the memory of a C-contiguous complex array as two real arrays of its shape
    return a.reshape(-1).view(float).reshape((2,) + a.shape)


def _backward_sum(c):
    # c[j] <- c[j] + c[j + 1] + ... + c[-1] in place, one time row at a
    # time: the same additions in the same order as np.cumsum over the
    # reversed axis 0, without its slow strided accumulate
    for j in range(len(c) - 2, -1, -1):
        np.add(c[j], c[j + 1], out=c[j])


def _angle_parts(shape):
    # the angle slices of the swept loops: parts at least two angles wide,
    # each holding a node-factor block of a tile's rows, so the blocks of
    # all parts stay within half a slab
    return split(0, shape[1], part_count(shape[1] // 2))


# the row sup _row_sup takes of a row of zeros, max(0, -0) = -0: the
# residual a tile left as it was would get from a pass, and a zero field's
_UNCHANGED_ROW = float(np.maximum(0.0, -0.0))


class _Tail:
    """One angle part's leading tiles that an in-place sweep left as they were.

    A frozen-path solve keeps one per part from sweep to sweep.  ``tiles``
    counts the tiles from t_max down whose rows (the part's columns) the
    last sweep that reached them rewrote bit for bit as they were;
    ``kernels`` are the kernels they were swept with, ``carried`` the
    part's two carried rows (right-node term and running integral) at the
    boundary below them, and ``sups`` the part's sup |D| of every row,
    which the rows of skipped tiles keep.  A tile's new rows depend only on
    z, its own rows, its kernel and the rows carried in from above, so the
    next sweep may start below the tail from ``carried``, unless a tail
    tile's kernel has changed: only the deepest boundary is kept, so then
    the sweep starts at t_max.
    """

    def __init__(self, shape, angles):
        self.tiles = 0
        self.kernels = []
        self.carried = np.empty((2, angles.stop - angles.start, shape[2]), dtype=complex)
        self.sups = np.empty(shape[0])

    def skip(self, kernels):
        """Tiles a sweep with these tile kernels leaves out; clears a stale tail."""
        if self.kernels != kernels[: self.tiles]:
            self.tiles, self.kernels = 0, []
        return self.tiles


def _unchanged(residual_rows, new, old, scratch):
    # new equals old bit for bit: zero row residuals leave only the signs
    # of zeros open, which the bits settle (in scratch)
    if residual_rows.any():
        return False
    bits = scratch.view(np.uint64)
    np.bitwise_xor(new.view(np.uint64), old.view(np.uint64), out=bits)
    return not bits.any()


def _integral_parts(grid: Grid, z, deviation, sup, on_tile, keep_phase=False, tails=None):
    """Backward integrals of one field, walked in parts of the angle axis.

    Part p of ``_angle_parts`` walks its columns ``angles`` of each tile
    of ``time_tiles(deviation.shape)`` from t_max backward and calls
    ``on_tile(p, angles, sl, integral, spare, phase)`` for the time rows
    ``sl``, where integral(t_i) = Int_{t_i}^{t_max} c(s) e^{i omega s} ds
    with cellwise alpha/beta weights, summed from the far end one time row
    at a time.  The parts run side by side (``in_parts``), so ``on_tile``
    is called from their threads, each part on its own columns.  A cell's
    right node is the first row of the tile above when the cell straddles
    a tile boundary, so two rows carry across it: that row's right-node
    term e^{iD} times its weight, and the running integral there.  Every
    cell thus sees the same products and the same additions, in the same
    order, as one pass over the whole field, whatever the part count: only
    time carries, and no column depends on another.

    ``sup`` holds sup|D| over each time row of ``deviation`` (one number
    bounds every row), and each tile takes its own kernel from its rows
    (``tile_kernels``), so the late rows of a decaying field pay for the
    few Taylor terms their size needs and not for the field's largest.
    The Filon weights are computed once for all omega; each tile slices
    rows of the e^{i omega t} table.  Each part's scratch (two complex
    slabs of the whole field's tile rows over its columns, the carried
    rows and one block of weighted node factors for a tile's rows) is
    allocated here, on the calling thread.  The arrays passed to
    ``on_tile`` are views into that scratch: they hold only until it
    returns, and ``spare`` is a pair of free real arrays of the tile's
    shape (the memory of the part's e^{iD} slab, read before ``on_tile``).
    With ``keep_phase`` each part keeps one more complex slab, in which the
    kernel writes the tile's pair (cos D - 1, sin D), and ``phase`` is
    that pair as two contiguous real arrays of the tile's shape; without
    it the pair is formed in the memory of the integral, and ``phase`` is
    None.

    ``tails``, one ``_Tail`` per part, skips each part's tail: part p
    leaves out the tiles ``tails[p].skip`` counts, and starts below them
    from the carried rows the tail kept.  While ``on_tile`` returns true
    (the tile's rows were rewritten bit for bit), from the first tile the
    part walks on, the tail takes each such tile and the rows carried
    below it.

    When every row sup is 0 and there is no ``keep_phase``, e^{iD} = 1 on
    every cell, so the integral is the same for every angle: each part
    integrates one private read-only zero column instead of its angles,
    with the one-term kernel ``tile_kernels`` gives zero rows, no tail and
    no read of ``deviation``, and ``integral`` has one angle,
    (rows, 1, n_omega), the value of every angle of the tile, formed by
    the same products and additions.  ``spare`` is then a pair the part
    allocates, as its complex slabs are one angle wide.

    Returns (kernels, skipped): the kernel of every tile each part swept,
    one per part-tile, so the tiles the tails skip are left out (none for
    the one-column walk, which reports no kernels), and the tiles, of one
    part each, that the tails left out.
    """
    conj_z = np.conj(z)[:, None]
    table = oscillation_table(grid.times(), grid.omega_nodes)
    shape = deviation.shape
    flat = float(np.max(sup)) == 0.0 and not keep_phase
    w = grid.omega_nodes * grid.dt
    alpha, beta = filon_weights(w)
    # each node carries its cell weight as a left (alpha) or right (beta)
    # end; the right node already has phase e^{i omega s_{j+1}}, so beta
    # loses its e^{i w}
    left_weight = grid.dt * alpha
    right_weight = grid.dt * (beta * np.exp(-1j * w))
    tiles = list(time_tiles(shape))
    kernels = tile_kernels(shape, sup)
    n_rows = _tile_rows(shape)
    parts = _angle_parts(shape)
    scratch = []
    for p, angles in enumerate(parts):
        cols = (angles.stop - angles.start, shape[2])
        width = (1, shape[2]) if flat else cols
        slabs = np.empty((2, n_rows) + width, dtype=complex)
        carried = np.empty((2,) + width, dtype=complex)
        node_rows = np.empty((n_rows, shape[2]), dtype=complex)
        kept = np.empty((n_rows,) + cols, dtype=complex) if keep_phase else None
        spare = np.empty((2, n_rows) + cols) if flat else _real_halves(slabs[0])
        tail = None if flat or tails is None else tails[p]
        first = 0 if tail is None else tail.skip(kernels)
        if first:
            np.copyto(carried, tail.carried)
        # a zero column of the part's own: deviation itself may be the
        # sweep's output, which the other parts are writing
        dev = np.broadcast_to(0.0, (shape[0],) + width) if flat else deviation[:, angles]
        scratch.append((first, tail, dev, *slabs, carried, node_rows, kept, spare))

    def walk(p):
        first, tail, dev, phases, cells, carried, node_rows, kept, spare = scratch[p]
        edge, above = carried
        growing = tail is not None
        for sl, kernel in zip(tiles[first:], kernels[first:]):
            n = sl.stop - sl.start
            e, c, node = phases[:n], cells[:n], node_rows[:n]
            # e^{iD} = 1 + (cos D - 1) + i sin D; the pair goes to the kept
            # slab or, until the cells form, to the memory of c, and the
            # memory of e holds D^2, as contiguous real arrays (twice as
            # fast for the kernel as strided .real/.imag)
            cos_m1, sin_d = _real_halves(c if kept is None else kept[:n])
            kernel(dev[sl], cos_m1, sin_d, _real_halves(e)[0])
            np.add(cos_m1, 1.0, out=e.real)
            np.copyto(e.imag, sin_d)
            # node factor conj(z(s_j)) e^{i omega s_j} times its left cell
            # weight, then times its right one: the factor is formed twice,
            # so one row block per part serves both
            np.multiply(table[sl], conj_z[sl], out=node)
            node *= left_weight
            np.multiply(e, node[:, None, :], out=c)
            np.multiply(table[sl], conj_z[sl], out=node)
            node *= right_weight
            e *= node[:, None, :]
            c[:-1] += e[1:]
            if sl.stop == shape[0]:
                # the last row integrates over no cell
                c[-1] = 0.0
            else:
                c[-1] += edge
                c[-1] += above
            _backward_sum(c)
            np.copyto(edge, e[0])
            np.copyto(above, c[0])
            phase = None if kept is None else (cos_m1, sin_d)
            rewritten = on_tile(p, parts[p], sl, c, spare[:, :n], phase)
            growing = growing and rewritten
            if growing:
                tail.tiles += 1
                tail.kernels.append(kernel)
                np.copyto(tail.carried, carried)

    in_parts(walk, len(parts))
    swept = [] if flat else [k for part in scratch for k in kernels[part[0]:]]
    return swept, sum(part[0] for part in scratch)


def deviation_sweep(report, grid: Grid, z, mu: float, weight: WeightSpec, deviation, sup, out,
                    rows, tails=None):
    """One sweep of F_z from ``deviation`` into ``out``, and its report entry.

    The new deviation is mu * Im(e^{i theta} I), formed one time tile at a
    time to bound the complex working set.  ``sup`` holds sup|D| over each
    time row of ``deviation`` (one number bounds every row), and each
    tile's e^{iD} comes from the phase kernel its own rows need
    (``tile_kernels``).  ``rows`` (2, n_times) receives the sup over each
    time row of |new - deviation| and of |new|, taken from the same pass
    while each tile is in cache; the second row is returned.  It may hold
    ``sup``, which is read before the first tile.

    ``report`` takes the sweep's entry: the residual ||new - deviation||_w
    from the row residuals, its quotient by the last residual while that
    sits above the report's floor, the sweep, and, as the walker reports
    them, the Taylor terms of the kernels it swept with (none from a zero
    field) and the tiles the tails left out.

    The angle axis is split into ``part_count(n_theta // 2)`` contiguous
    parts, at least two angles wide, that run side by side
    (``_integral_parts``, which calls this sweep's projection once per
    tile of each part); each walks the whole field's time tiles over its
    own columns, and each row sup is the max of the parts' row sups.  No
    product or addition depends on the part count, so the result is
    bit-identical for any.

    The new field goes to ``out``, which may be ``deviation`` itself.  Each
    tile's new rows are formed in tile scratch and copied into ``out``
    once, after the row residual has been taken.  The kernels are fixed
    from the row sups before the first tile, a part reads and writes only
    its own columns, a tile's rows of D are read before the tile is
    written, and only the two carried rows cross a tile boundary, so no
    tile reads a row already overwritten.

    ``tails`` (a ``_Tail`` per angle part, kept by the caller from sweep
    to sweep with z fixed) is read only by an in-place sweep.  Each part
    then skips the tiles its tail holds: their rows are what this sweep
    would write, so they stay as they are, with the residual rows of zero
    differences the row residuals start at and the part's row sups kept
    in the tail.  The projection reports each tile it rewrites bit for
    bit, and such a tile directly below the tail joins it.

    When every row sup is 0 the integral has no angle dependence: each
    part integrates one zero column of its own (``_integral_parts``),
    reading nothing of ``deviation``, and the residual rows are the new
    rows' sups.  The bits are those of the full sweep.
    """
    times = grid.times()
    z = _path(times, z)
    # mu * Im(e^{i theta} I) = (mu cos theta) Im I + (mu sin theta) Re I
    mu_cos = (mu * np.cos(grid.theta()))[None, :, None]
    mu_sin = (mu * np.sin(grid.theta()))[None, :, None]
    flat = float(np.max(sup)) == 0.0
    if flat or not np.may_share_memory(out, deviation):
        tails = None
    trig = [(mu_cos[:, angles], mu_sin[:, angles]) for angles in _angle_parts(deviation.shape)]
    # skipped rows keep the residual of a tile left as it was
    part_rows = np.full((len(trig), len(times)), _UNCHANGED_ROW)
    sups = np.empty_like(part_rows) if tails is None else [tail.sups for tail in tails]

    def sweep(p, angles, sl, ib, spare, _):
        # the tile's new rows, its row sups and whether it was rewritten
        # bit for bit (read only while a tail grows)
        part_cos, part_sin = trig[p]
        new, scratch = spare
        np.multiply(ib.imag, part_cos, out=new)
        np.multiply(ib.real, part_sin, out=scratch)
        new += scratch
        _row_sup(new, sups[p][sl])
        old = deviation[sl, angles]
        if flat:
            # from D = 0 the residual is new itself
            part_rows[p, sl] = sups[p][sl]
        else:
            np.subtract(new, old, out=scratch)
            _row_sup(scratch, part_rows[p, sl])
        rewritten = tails is not None and _unchanged(part_rows[p, sl], new, old, scratch)
        np.copyto(out[sl, angles], new)
        return rewritten

    kernels, skipped = _integral_parts(grid, z, deviation, sup, sweep, tails=tails)
    np.max(part_rows, axis=0, out=rows[0])
    np.max(sups, axis=0, out=rows[1])
    report.tile_terms.update(kernel.terms for kernel in kernels)
    report.tiles_skipped += skipped
    res = weighted_norm(times, rows[0], weight, deviation=True)
    if report.residuals and report.residuals[-1] > report.floor:
        report.ratios.append(res / report.residuals[-1])
    report.residuals.append(res)
    report.sweeps += 1
    return rows[1]


def _path(times, z):
    # z as a complex array, refused unless it holds one sample per grid time
    z = np.asarray(z, dtype=complex)
    if z.shape != times.shape:
        raise ValueError("z must be sampled on the time grid")
    return z


def _refuse_nonfinite(z, mu):
    # NaN or inf in the path or the coupling, or a negative coupling (whose
    # gain would certify as negative), is bad input, to be named as such
    # rather than reported as a gain >= 1, a NaN field or a contraction
    real("mu", mu, lo=0.0)
    if not np.all(np.isfinite(z)):
        raise ValueError("z must be finite at every grid time")


def _open_report(grid: Grid, z, mu: float, weight: WeightSpec, tol: float):
    # an empty report for the map F_z with its certified gain; refuses
    # non-finite input, a negative mu and kappa >= 1
    _refuse_nonfinite(z, mu)
    r_norm = weighted_norm(grid.times(), z, weight)
    bound = mu * r_norm * weight.unit_contraction_gain
    if not bound < 1.0:
        raise NonContractiveError(bound)
    dev_scale = mu * r_norm * weight.unit_deviation_gain
    return ContractionReport(
        bound=bound,
        tol=tol,
        floor=max(tol, 1e-14 * max(1.0, dev_scale)),
        tail_remainder=mu * r_norm * weight.tail_integral(grid.t_max),
    )


def _field_array(grid: Grid, out):
    # ``out`` checked, or a new field when None; its contents are not read
    if out is None:
        return np.empty(grid.shape())
    if out.shape != grid.shape() or out.dtype != np.float64:
        raise ValueError(f"out must be a float array of shape {grid.shape()}")
    return out


def _carrying(grid: Grid, deviation, mu: float, rows) -> CharacteristicField:
    # a field with the row sups of |D| its writer took, bit for bit those
    # of row_gaps()
    fld = CharacteristicField(grid, deviation, mu)
    object.__setattr__(fld, "_rows", rows)
    return fld


def _zero_start(grid: Grid):
    # D = 0 as a read-only array of the grid's shape: a sweep from it at
    # sup 0 reads none of it
    return np.broadcast_to(0.0, grid.shape())


def _zero_gain_field(grid: Grid, mu: float, report, residual: float, out):
    # a zero gain (mu = 0 or z = 0) makes F_z identically zero: no sweep;
    # the zero field's row sups are those of zero rows, so its norm is the
    # -0.0 a pass over it would take
    report.converged = True
    report.residuals.append(residual)
    if out is None:
        dev = np.zeros(grid.shape())
    else:
        dev = _field_array(grid, out)
        dev.fill(0.0)
    return _carrying(grid, dev, mu, np.full(grid.n_times, _UNCHANGED_ROW)), report


def picard_sweep(
    grid: Grid,
    z,
    mu: float,
    weight: WeightSpec,
    field: CharacteristicField | None = None,
    out=None,
):
    """One sweep D |-> F_z(D) of the backward map from an arbitrary field.

    ``field`` defaults to D = 0.  Refuses non-finite ``z``, a ``mu`` that
    is non-finite or negative (ValueError) and a gain >= 1 like
    ``solve_fixed_point``.  The report
    carries the single residual ||F_z(D) - D||_w and no ratios, and is
    never ``converged``: one sweep does not solve the fixed point.  A zero
    gain (mu = 0 or z = 0) makes F_z identically zero, so the zero field is
    returned without a sweep; that report is ``converged``, since the zero
    field is then exact.  The swept field goes to ``out``, a float array of
    the grid's shape other than ``field.deviation`` (a new array when
    None): ``field`` is left as it is.  The kernel comes from
    ``field.row_sups()``, which a swept field carries; from a zero field
    the sweep integrates one angle column and reads no field.  The sweep
    and its report entry are ``deviation_sweep``, the one step
    ``solve_fixed_point`` repeats, and the returned field carries its row
    sups.

    Returns (CharacteristicField, ContractionReport).
    """
    z = _path(grid.times(), z)
    report = _open_report(grid, z, mu, weight, 0.0)
    if report.bound == 0.0:
        residual = field.deviation_norm(weight) if field is not None else 0.0
        return _zero_gain_field(grid, mu, report, residual, out)
    start, sup = (_zero_start(grid), 0.0) if field is None else (field.deviation, field.row_sups())
    new = _field_array(grid, out)
    sups = deviation_sweep(report, grid, z, mu, weight, start, sup, new,
                           np.empty((2, grid.n_times)))
    return _carrying(grid, new, mu, sups), report


def solve_fixed_point(
    grid: Grid,
    z,
    mu: float,
    weight: WeightSpec,
    tol: float = 1e-12,
    out=None,
):
    """Iterate the backward map to its fixed point for a frozen path z.

    Starts from D = 0, so every iterate obeys the deviation bound and the
    residual trail certifies the per-sweep contraction.  Refuses non-finite
    ``z``, a ``mu`` that is non-finite or negative (ValueError), and
    refuses to start when the certified gain mu * ||R||_w * unit_gain is
    >= 1 (NonContractiveError); raises MaxSweepsExceededError if the
    residual is above ``tol`` (finite and > 0, else ValueError) after
    MAX_SWEEPS sweeps.  A zero gain returns the zero field as picard_sweep.
    Each sweep is ``deviation_sweep``, which records the residual and,
    while the last residual sits above the report's floor, the ratio.
    The first sweep, from D = 0, integrates one angle column and writes
    every cell of the solve's one field; every later sweep overwrites that
    field in place, each tile with the kernel of the row sups the sweep
    before took.  So the solve holds one field plus the sweep's tile slabs;
    that field is ``out``, a float array of the grid's shape, when given,
    and the returned field carries its row sups.

    The map is of Volterra type: row t of a sweep depends only on the rows
    s >= t, and with z frozen the rows near t_max reach their fixed point
    first.  From the third sweep on each angle part therefore skips the
    leading tiles that the sweep before rewrote bit for bit as they were,
    and resumes below them from the two rows it carried there
    (``deviation_sweep``'s tails); a tile whose kernel has changed since
    is not skipped.  The skipped rows are exactly what the sweep would
    have written, so field, residuals and row sups are bit-identical to
    sweeping every tile, and the working set grows by two rows per part.

    Returns (CharacteristicField, ContractionReport).
    """
    real("tol", tol, lo=0.0, above=True)
    z = _path(grid.times(), z)
    report = _open_report(grid, z, mu, weight, tol)
    if report.bound == 0.0:
        return _zero_gain_field(grid, mu, report, 0.0, out)
    shape = grid.shape()
    dev = _field_array(grid, out)
    tails = [_Tail(shape, angles) for angles in _angle_parts(shape)]
    # the sweeps' row residuals and row sups, allocated once: a pair
    # allocated per sweep lands among the freed fields on the heap and
    # raised exp_ref's peak RSS from 154 to 163 MB
    rows = np.empty((2, grid.n_times))
    start, sup = _zero_start(grid), 0.0
    while report.sweeps < MAX_SWEEPS:
        sup = deviation_sweep(report, grid, z, mu, weight, start, sup, dev, rows, tails=tails)
        start = dev
        if report.residuals[-1] <= tol:
            report.converged = True
            return _carrying(grid, dev, mu, sup), report
    raise MaxSweepsExceededError(
        f"residual {report.residuals[-1]:.3e} > tol {tol:.1e} "
        f"after {MAX_SWEEPS} sweeps (bound {report.bound:.3g})"
    )


def _rk4_step(g0, g1, g2):
    """The classical RK4 step of the oracle's linear system, as a pair.

    g_k = h b(s_k) at the bottom, middle and top of a sub-step of length h,
    for [p, q]' = [[0, b], [conj(b), 0]] [p, q] stepped backward from the
    top.  With A_k the matrix at s_k, the stages K_1 = A_2,
    K_2 = A_1 (I - h K_1 / 2), K_3 = A_1 (I - h K_2 / 2), K_4 = A_0 (I - h K_3)
    give R = I - (h / 6) (K_1 + 2 K_2 + 2 K_3 + K_4), whose pair is
    alpha = 1 + (g_1 conj(g_2) + |g_1|^2 + g_0 conj(g_1)) / 6
              + |g_1|^2 g_0 conj(g_2) / 24,
    beta = -((2 + |g_1|^2) (g_0 + g_2) + 8 g_1) / 12.
    """
    s1 = g1.real * g1.real + g1.imag * g1.imag
    alpha = g1 * np.conj(g2)
    alpha += g0 * np.conj(g1)
    alpha += s1
    alpha += (s1 / 4.0) * g0 * np.conj(g2)
    alpha /= 6.0
    alpha += 1.0
    beta = g0 + g2
    beta *= -(2.0 + s1) / 12.0
    beta -= g1 * (8.0 / 12.0)
    return alpha, beta


def _compose(a1, b1, a2, b2):
    # the pair of [[a1, b1], [conj b1, conj a1]] [[a2, b2], [conj b2, conj a2]]
    return a1 * a2 + b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


def _step_rates(samples, osc, starts, omega_h, q):
    # h b at s = t_j + q h / 2 per column, b = (mu / 2) z(s) e^{-i omega s}:
    # sample q of the column's block, times osc = (mu / 2) h e^{-i omega t_j},
    # times e^{-i omega q h / 2}
    g = np.take(samples, starts + q, axis=1)
    g *= osc
    g *= np.exp(-0.5j * q * omega_h)
    return g


def _spline_cells(x, y):
    """Cells of the not-a-knot cubic spline through (x, y), as coefficients.

    Returns (y_j, s_j, c2_j, c3_j), each of length len(x) - 1: on cell j
    the spline is y_j + s_j u + c2_j u^2 + c3_j u^3 at u = t - x_j.  The
    knot slopes s solve the system scipy's CubicSpline builds: the rows
    dx_i s_{i-1} + 2 (dx_{i-1} + dx_i) s_i + dx_{i-1} s_{i+1}
    = 3 (dx_i m_{i-1} + dx_{i-1} m_i) inside, m being the chord slopes,
    and at each end the not-a-knot row (a continuous third derivative at
    x_1, and at x_{n-2}).  Each end row is subtracted from its neighbour,
    with multiplier exactly 1, which leaves a strictly diagonally dominant
    system in s_1 .. s_{n-2}; elimination without pivoting is stable on
    it, and s_0 and s_{n-1} then follow from the end rows.  ``x`` must
    increase.  Fewer than 4 knots are refused (ValueError): the two
    not-a-knot rows would then fall on one cell.
    """
    n = len(x)
    if n < 4:
        raise ValueError(f"a not-a-knot spline needs at least 4 knots, got {n}")
    dx = np.diff(x)
    chord = np.diff(y) / dx
    # the end rows dx_1 s_0 + d0 s_1 = r0 and d1 s_{n-2} + dx_{n-3} s_{n-1} = r1
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    r0 = ((dx[0] + 2.0 * d0) * dx[1] * chord[0] + dx[0] ** 2 * chord[1]) / d0
    r1 = (dx[-1] ** 2 * chord[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * chord[-1]) / d1
    # rows 1 .. n - 2, less the end rows, by elimination in plain floats
    diag = (2.0 * (dx[:-1] + dx[1:])).tolist()
    rhs = (3.0 * (dx[1:] * chord[:-1] + dx[:-1] * chord[1:])).tolist()
    diag[0] -= d0
    rhs[0] -= r0
    diag[-1] -= d1
    rhs[-1] -= r1
    lower, upper = dx[2:].tolist(), dx[:-2].tolist()
    for k in range(1, n - 2):
        w = lower[k - 1] / diag[k - 1]
        diag[k] -= w * upper[k - 1]
        rhs[k] -= w * rhs[k - 1]
    s = [0.0] * n
    s[n - 2] = rhs[-1] / diag[-1]
    for k in range(n - 4, -1, -1):
        s[k + 1] = (rhs[k] - upper[k] * s[k + 2]) / diag[k]
    s[0] = (r0 - d0 * s[1]) / dx[1]
    s[-1] = (r1 - d1 * s[-2]) / dx[-2]
    s = np.array(s)
    # each cell's Hermite cubic from its end values and slopes
    bend = (s[:-1] + s[1:] - 2.0 * chord) / dx
    return y[:-1], s[:-1], (chord - s[:-1]) / dx - bend, bend / dx


def _half_step_samples(times, dt, z, m):
    """z by a cubic spline at t_j + q h / 2, q = 0 .. 2m, h = dt / m.

    One block of 2m + 1 sample columns per distinct sub-step count m, for
    every cell j: the cell's cubic (``_spline_cells``) by Horner's rule at
    the offsets q h / 2.  Returns the (n_times - 1, sum of 2m + 1) samples
    and, for every entry of ``m``, where its block starts.
    """
    # the spline is built in numpy: scipy's CubicSpline would load
    # scipy.interpolate and scipy.linalg, about 50 MB resident, for one
    # tridiagonal solve
    y0, s0, c2, c3 = (c[:, None] for c in _spline_cells(times, z))
    counts = np.unique(m)
    blocks = 2 * counts + 1
    first = np.cumsum(blocks) - blocks
    samples = np.empty((len(times) - 1, int(blocks.sum())), dtype=complex)
    for mv, lo, size in zip(counts.tolist(), first.tolist(), blocks.tolist()):
        offs = 0.5 * (dt / mv) * np.arange(size)
        block = samples[:, lo:lo + size]
        np.multiply(c3, offs, out=block)
        block += c2
        block *= offs
        block += s0
        block *= offs
        block += y0
    return samples, first[np.searchsorted(counts, m)]


def _cell_maps(times, dt, omega, m, mu, zc, starts):
    """Pairs (alpha, beta) of each cell's RK4 map C_j = R_1 R_2 ... R_m.

    ``omega`` and ``m`` are the columns sorted by sub-step count, largest
    first, so the columns that take sub-step i (m >= i) are a prefix;
    ``starts`` says where each column's block of ``zc`` starts.  One pass
    per sub-step index i multiplies R_i into that prefix, on row blocks of
    at most _TILE_CELLS / 16 (cell, column) entries, so the dozen complex
    scratch arrays of a block fit in one complex tile slab.  Returns
    (n_times, n_omega) arrays whose last row is left unset.
    """
    n_t = len(times)
    h = dt / m
    omega_h = omega * h
    alpha, beta = np.empty((2, n_t, omega.size), dtype=complex)
    for i in range(1, int(m[0]) + 1):
        n = int(np.count_nonzero(m >= i))
        rows = max(1, _TILE_CELLS // (16 * n))
        for lo in range(0, n_t - 1, rows):
            blk = slice(lo, min(lo + rows, n_t - 1))
            osc = np.exp(-1j * np.outer(times[blk], omega[:n]))
            osc *= 0.5 * mu * h[:n]
            step = _rk4_step(*(
                _step_rates(zc[blk], osc, starts[:n], omega_h[:n], q)
                for q in (2 * i - 2, 2 * i - 1, 2 * i)
            ))
            ca, cb = alpha[blk, :n], beta[blk, :n]
            ca[...], cb[...] = step if i == 1 else _compose(ca, cb, *step)
    return alpha, beta


def backward_ode_oracle(
    grid: Grid,
    z,
    mu: float,
    phase_step_cap: float = 0.125,
) -> CharacteristicField:
    """Independent deviation solve: classical Runge-Kutta along each column.

    Integrates psi' (s) = -mu Im(conj(z(s)) e^{i(theta + omega s + psi)})
    backward from psi(t_max) = 0, with z interpolated by the not-a-knot
    cubic spline of scipy's CubicSpline, built in numpy (``_spline_cells``),
    so the oracle loads no scipy submodule; the tests hold its samples
    within 1e-12 of max|z| of CubicSpline's (7.8e-18 on the exponential
    reference path).
    Each frequency column takes m = ceil(|omega| dt / phase_step_cap)
    sub-steps of h = dt / m per cell, keeping the local error uniformly
    small; columns whose requirement exceeds MAX_SUBSTEPS are rejected
    rather than silently degraded.  Non-finite ``z``, a non-finite or
    negative ``mu`` and a ``phase_step_cap`` that is not a finite number
    > 0 are refused (ValueError).

    The steps act on the Moebius form of the flow, which has no angle
    axis.  With Psi = theta + psi and a(s) = -mu conj(z(s)) e^{i omega s},
    Psi' = Im(a e^{i Psi}), so w = e^{i Psi} obeys the Riccati equation
    w' = (a w^2 - conj(a)) / 2, and w = p / q for the linear system
    [p, q]' = [[0, b], [conj(b), 0]] [p, q] with b = -conj(a) / 2, the same
    for every theta.  Each matrix met on the way has the form
    [[alpha, beta], [conj(beta), conj(alpha)]] and is kept as the pair
    (alpha, beta).  The classical RK4 step of the linear system over one
    sub-step is the pair ``_rk4_step`` forms from b at the sub-step's
    bottom, middle and top; a cell's map C_j is the product of its m steps
    (``_cell_maps``), and the map from t_max back to t_j is
    M_j = C_j M_{j+1}, on (n_times, n_omega) arrays.  From [e^{i theta}, 1]
    at t_max, e^{i psi} = N / conj(N) with N = alpha + beta e^{-i theta},
    so psi = 2 arg N, written one time tile at a time, each tile's rows
    split into parts that run side by side (``in_row_parts``).

    2 arg N is psi only while |psi| < 2 pi (arg N is continuous from
    N = 1 at t_max).  Every stage rate is at most |mu| |z(sample)|, so
    |psi| stays below the a priori bound B = |mu| dt sum over cells of the
    largest |z| among the spline samples the cell reads, and
    StepRejectedError refuses B >= 2 pi by name.

    The working set is the output field, the spline samples of z, the
    complex pairs (alpha, beta) on (n_times, n_omega), and one complex
    tile slab's worth of scratch.  Apart from the tile walk and the input
    checks, the oracle shares no code with the cell-weight quadrature
    route: the integrator (RK4 against Filon cells), the interpolation of
    z (a cubic spline against the grid values), the resolution of the
    oscillation (sub-stepping against exact cell weights) and the phase
    (2 arg N against the phase kernel) are separate.
    """
    times = grid.times()
    z = _path(times, z)
    _refuse_nonfinite(z, mu)
    # 0, a negative cap or NaN would make every column one sub-step
    phase_step_cap = real("phase_step_cap", phase_step_cap, lo=0.0, above=True)
    dt, theta, omega = grid.dt, grid.theta(), grid.omega_nodes
    need = np.maximum(np.ceil(np.abs(omega) * dt / phase_step_cap).astype(int), 1)
    if int(need.max()) > MAX_SUBSTEPS:
        raise StepRejectedError(
            f"column |omega| = {np.abs(omega).max():.3g} needs {int(need.max())} "
            f"sub-steps > cap {MAX_SUBSTEPS}"
        )
    # columns sorted by sub-step count, largest first
    order = np.argsort(-need, kind="stable")
    m = need[order]
    zc, starts = _half_step_samples(times, dt, z, m)
    bound = abs(mu) * dt * float(np.abs(zc).max(axis=1).sum())
    if not bound < 2.0 * math.pi:
        raise StepRejectedError(
            f"phase bound B = {bound:.4g} >= 2 pi: 2 arg N could leave the branch of psi"
        )
    alpha, beta = _cell_maps(times, dt, omega[order], m, mu, zc, starts)
    # M_j = C_j M_{j+1} from M = I at t_max, in place and in the input's
    # column order
    inverse = np.argsort(order)
    alpha[-1], beta[-1] = 1.0, 0.0
    for j in range(grid.n_times - 2, -1, -1):
        alpha[j], beta[j] = _compose(alpha[j, inverse], beta[j, inverse], alpha[j + 1], beta[j + 1])

    # per time row, the real (n_theta, 4) matrices take (Re alpha, Im alpha,
    # Re beta, Im beta) to Re N = Re alpha + Re beta cos theta + Im beta
    # sin theta and Im N = Im alpha - Re beta sin theta + Im beta cos theta
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    zero, one = np.zeros_like(theta), np.ones_like(theta)
    to_re = np.stack([one, zero, cos_t, sin_t], axis=1)
    to_im = np.stack([zero, one, -sin_t, cos_t], axis=1)
    dev = np.empty(grid.shape())
    halves = (alpha.real, alpha.imag, beta.real, beta.imag)

    def arg_n(i, rows, re_n, pairs):
        # each row's products keep their (n_theta, 4) (4, n_omega) shape, so
        # psi does not depend on the part count
        im_n = dev[rows]
        for k, half in enumerate(halves):
            pairs[:, k] = half[rows]
        np.matmul(to_re, pairs, out=re_n)
        np.matmul(to_im, pairs, out=im_n)
        np.arctan2(im_n, re_n, out=im_n)
        im_n *= 2.0

    in_row_parts(dev.shape, arg_n, dev.shape[1:], (4, omega.size))
    return CharacteristicField(grid, dev, mu)


def gamma_field(field: CharacteristicField, z, on_tile) -> float:
    """Coupling integrals of a (converged) field under its driving path.

    Recomputes the backward integral once, in the angle parts of
    ``deviation_sweep`` (``_integral_parts``, which calls this function's
    projection once per tile of each part), and hands each block of both
    projections, with the block's phase pair, to
    ``on_tile(sl, angles, sin_tile, cos_tile, cos_m1, sin_d)``: the time
    rows ``sl`` of one tile, the angle columns ``angles`` of one part,
    from t_max backward within each part.  sin_tile is Gamma on that
    block, which recovers deviation / mu at a fixed point, and cos_tile is
    the companion cosine integral whose exponential is the exact angular
    Jacobian of the transported label map, which feeds the density
    reconstruction.  (cos_m1, sin_d) is (cos D - 1, sin D) on the block,
    the pair the integral was formed from (the tile's own kernel of
    ``tile_kernels``, picked from the field's row sups), so e^{iD} - 1
    comes with no trig of the consumer's own.

    ``on_tile`` is called from the parts' threads, part 0 on the calling
    thread and the others on the pool, on disjoint blocks that together
    cover the field once.  It may write its blocks of shared arrays, but
    anything else it shares needs a lock, and it must not call a split
    loop of the package (a sweep, a quadrature or this function).  The
    four arrays are contiguous views into scratch that the part's next
    tile reuses, so a consumer may overwrite them and copies what it
    keeps; no field-sized array is allocated.

    Returns the margin max(|Gamma| / beta) over the rows with beta > 0 (0
    when there are none), from the max of the parts' row sups of |Gamma|.
    beta(t) = Int_t^{t_max} R bounds |Gamma(t)|, discretized with the same
    cell weights (|alpha| + |beta| <= 1 per cell makes the bound provable
    on the grid, not merely asymptotic), plus the weight-free tail (zero
    here; callers add their own certified tail when they have a weight in
    hand).  The bound holds when the margin is at most 1 + 1e-12, and its
    distance below 1 is the headroom the bound had.  A z not sampled on
    the time grid raises ValueError.
    """
    g = field.grid
    z = _path(g.times(), z)
    n_t = g.n_times
    cos_t, sin_t = np.cos(g.theta())[None, :, None], np.sin(g.theta())[None, :, None]
    trig = [(cos_t[:, angles], sin_t[:, angles]) for angles in _angle_parts(field.deviation.shape)]
    part_rows = np.empty((len(trig), n_t))

    def project(p, angles, sl, ib, spare, phase):
        # both projections in the memory of spare; the last product goes
        # into ib.imag, which nothing reads after it
        part_cos, part_sin = trig[p]
        sp, cp = spare
        np.multiply(ib.imag, part_cos, out=sp)
        np.multiply(ib.real, part_sin, out=cp)
        sp += cp
        np.multiply(ib.real, part_cos, out=cp)
        np.multiply(ib.imag, part_sin, out=ib.imag)
        cp -= ib.imag
        _row_sup(sp, part_rows[p, sl])
        on_tile(sl, angles, sp, cp, *phase)

    _integral_parts(g, z, field.deviation, field.row_sups(), project, keep_phase=True)
    rows = part_rows.max(axis=0)
    r = np.abs(z)
    dt = g.dt
    beta = np.zeros(n_t)
    beta[:-1] = np.cumsum((0.5 * dt * (r[:-1] + r[1:]))[::-1])[::-1]
    held = beta > 0.0
    return float(np.max(rows[held] / beta[held], initial=0.0))


def phase_quadrature(field: CharacteristicField, sups, weights, z):
    """z(t) += sum over (theta_j, omega_k) of weights_j (e^{iD} - 1) e^{i omega_k t} g_k.

    In place, and z is returned; ``sups`` are the field's row sups
    (``field.row_sups()``, which the caller has read), ``weights`` are
    complex, one per angle, and g_k the grid's prob_weights.  Each tile's
    (cos D - 1, sin D) and D^2 go into three real slabs from the tile's
    own kernel (``sups`` pick it), are projected onto the weights by real
    matrix products, and each time row sums over every frequency at once
    against its row of the e^{i omega t} table.  The angle sum is a
    matrix product, so the loop splits rows.
    """
    g = field.grid
    proj = np.stack([weights.real, weights.imag])
    kernels = tile_kernels(g.shape(), sups)
    table = oscillation_table(g.times(), g.omega_nodes)

    def quadrature(i, rows, cos_m1, sin_d, d2):
        kernels[i](field.deviation[rows], cos_m1, sin_d, d2)
        # weights (cos D - 1 + i sin D) summed over angles, by real
        # matmuls: rows (Re, Im) of each projection
        pc = np.matmul(proj, cos_m1)
        ps = np.matmul(proj, sin_d)
        s = pc[:, 0] - ps[:, 1] + 1j * (pc[:, 1] + ps[:, 0])
        z[rows] += np.einsum("tk,tk,k->t", table[rows], s, g.prob_weights)

    in_row_parts(g.shape(), quadrature, *[g.shape()[1:]] * 3)
    return z
