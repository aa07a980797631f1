"""Numpy orbit step and grid kernel.

``step`` applies a map of any dimension to arrays of points with IEEE
semantics (inf on a pole, nan on 0/0) and also returns the denominators
it evaluated.  It runs the map's ``step_program``, straight-line numpy
code built on the first step and cached on the map, which forms each
power and product once, folds -1 coefficients into subtractions where
that is bit-exact on float64, and divides in place (see
``poly.ArrayProgram``; ``Polynomial.eval_grid`` is its one-polynomial
case).  The period grid, the component pass of the rasters, the
pole-depth layers (``denominators`` at their last depth), the closure
pre-check and the fit of ``boundaries_empirical``, the component
permutation of ``decompose`` (``pushed_sigma``) and ``verify`` all
iterate through it.
``first_returns`` is the one first-return loop: it gives each of a flat
array of starts, of any dimension, the first k <= n_max whose iterate is
within tol of the start under the chordal metric, 0 when there is none,
and -1 when the orbit leaves the finite chart first (0/0 or a pole
transit).  ``period_grid`` runs it on the cells of a 2d map's raster and
the component pass on the snapped band columns.  Its return test,
``returns``, is shared with the closure pre-check of
``boundaries_empirical``: a cheap reject bound, coordinate by coordinate,
a cheap accept bound on the entries that pass it, and the exact chordal
distance only on the few that neither decides.  Both grid layers run in
the row blocks of ``blocks``, so their float temporaries are bounded by
``BLOCK_CELLS`` cells per thread whatever the grid's size.  ``run_blocks``
shares those blocks between the calling thread and ``WORKERS - 1`` helper
threads; numpy releases the GIL inside its array loops, so at 2^16 cells a
block the two threads overlap.  Each block writes only its own rows of a
preallocated output, so the result does not depend on which thread ran
which block.  ``np.errstate`` is per thread: every numpy call a block
makes that can warn sets its own (``step``, ``denominators``,
``return_start``, ``returns``).
"""

from __future__ import annotations

import os
import threading
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .core import RationalMap

BACKEND = "python"
BLOCK_CELLS = 1 << 16  # cells per row block of the grid layers
N_MAX_LIMIT = int(np.iinfo(np.int16).max)  # the largest n_max: a first return k must fit int16


# threads per grid layer: the CPUs this process may run on, capped at 2, the most measured to gain
WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


def blocks(w: int, h: int) -> List[Tuple[int, int]]:
    """Row ranges [lo, hi) covering h rows of width w, about BLOCK_CELLS cells each."""
    rows = max(1, BLOCK_CELLS // max(w, 1))
    return [(lo, min(lo + rows, h)) for lo in range(0, h, rows)]


def run_blocks(fn: Callable[[int, int], None], w: int, h: int) -> None:
    """Call ``fn(lo, hi)`` once for every row block of ``blocks(w, h)``.

    The calling thread and up to ``WORKERS - 1`` helper threads (no more
    than there are blocks) take the blocks in order from one iterator.
    Once any of them raises, including a ``KeyboardInterrupt`` in the
    caller, the others stop after their current block; every helper is
    joined before the first exception is raised again, so no thread
    outlives the call.  With one worker the blocks run in order on the
    caller."""
    todo = blocks(w, h)
    pending = iter(todo)
    lock = threading.Lock()
    failed: List[BaseException] = []  # what the workers raised, in order

    def work() -> None:
        try:
            while True:
                with lock:
                    block = None if failed else next(pending, None)
                if block is None:
                    return
                fn(*block)
        except BaseException as exc:
            failed.append(exc)

    helpers: List[threading.Thread] = []
    try:
        for _ in range(min(WORKERS, len(todo)) - 1):
            helpers.append(threading.Thread(target=work))
            helpers[-1].start()
        work()
    except BaseException as exc:  # a helper that could not start, or an interrupt outside fn
        failed.append(exc)
    for t in helpers:
        while t.is_alive():
            try:
                t.join()
            except BaseException as exc:  # an interrupt while waiting: the helpers stop, wait on
                failed.append(exc)
    if failed:
        raise failed[0]


def step(m: RationalMap, coords: Sequence[np.ndarray]) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """(denominators, images) of m at arrays of one shape, one per variable,
    each a list with one array per component, run by ``m.step_program``.
    Every array is new, never an input.  A denominator that is exactly 1
    is not divided by (x / 1.0 is x in IEEE)."""
    with np.errstate(all="ignore"):
        return m.step_program(coords)


def denominators(m: RationalMap, coords: Sequence[np.ndarray]) -> List[np.ndarray]:
    """The denominators of ``step`` alone, as new arrays, by the denominator
    part of the map's program."""
    with np.errstate(all="ignore"):
        return m.denominator_program(coords)[0]


def _homogeneous(a):
    """Normalized homogeneous pair (u, v) of a on the real projective line."""
    small = np.abs(a) <= 1.0
    with np.errstate(all="ignore"):
        t = np.where(small, a, 1.0 / a)  # the chart coordinate: inf -> 0 in the inverse chart
        h = np.sqrt(1.0 + t * t)
        p, q = t / h, 1.0 / h
    return np.where(small, p, q), np.where(small, q, p)


def _chord_grid(a, uv):
    """Chordal distance |u1 v2 - u2 v1| from a to b, given uv = _homogeneous(b);
    on arrays, handles inf, propagates nan."""
    u1, v1 = _homogeneous(a)
    u2, v2 = uv
    return np.abs(u1 * v2 - u2 * v1)


def return_start(coords: Sequence[np.ndarray]) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per coordinate of arrays of starts, what ``returns`` compares with:
    the start b and 1 + b².  An infinite start is kept as b = 0 with an
    infinite 1 + b², so its bound is infinite and every iterate but nan stays
    its candidate.  Both entries are arrays of the starts' shape, so a gather
    by one index keeps them aligned."""
    out = []
    with np.errstate(all="ignore"):
        for b in coords:
            inf = np.isinf(b)
            out.append((np.where(inf, 0.0, b) if inf.any() else b, 1.0 + b * b))
    return out


def _start_pair(b, nb):
    """_homogeneous of the starts that ``return_start`` kept as (b, 1 + b²):
    b = 0 with an infinite 1 + b² is an infinite start, whose pair (1, ±0)
    gives the same chordal distances for either sign."""
    return _homogeneous(np.where(np.isinf(nb) & (b == 0.0), np.inf, b))


SURE_TOL = 1e-13  # the least tol at which ``returns`` accepts by a bound


def returns(cur: Sequence[np.ndarray], start, tol: float, open_: np.ndarray) -> np.ndarray:
    """bool per entry: open and every coordinate of ``cur`` chordally within tol
    of the start's, the decision of ``_chord_grid(a, _homogeneous(b)) < tol``.

    Three stages decide it, each only on what the stages before left open:

    1. A bound rejects.  chord(a, b) = |a - b| / sqrt((1 + a²)(1 + b²)) and
       the root is at most 1 + a² + b², so a return needs
       |a - b| <= (2 tol + 1e-12)(1 + a² + b²); the factor 2 and the 1e-12
       cover the rounding of the exact form.  An inf iterate or an
       overflowing a² compares inf <= inf and stays a candidate, a nan
       fails.  The bound runs coordinate by coordinate: once at most half
       of the entries are still candidates, the next coordinates see only
       those, gathered.
    2. A bound accepts.  (1 + a²)(1 + b²) = (1 + ab)² + (a - b)², so
       chord(a, b) <= |a - b| / |1 + ab|, and a candidate with
       |a - b| < (tol/2)|1 + ab| in every coordinate returns when the right
       side and the start are finite.  The rounding of this test moves it
       by a few ulps relative (|ab| <= |1 + ab| + |a - b| bounds the
       cancellation in 1 + ab), so the true chord is below tol/2 plus a
       few ulps of it; the exact form adds a few 1e-16 absolute and stays
       below tol while tol >= SURE_TOL, 1e-13.  Below that the stage is
       skipped.  An overflowing ab makes the right side infinite and an
       infinite start, kept as b = 0, has an infinite 1 + b², so neither is
       accepted here.
    3. The exact chordal distance, with the start's homogeneous pair, runs
       on the gathered candidates that the accept bound left.
    """
    c = 2.0 * tol + 1e-12
    cand = open_.copy()
    sel = None  # the candidates' indices, once they are at most half the entries
    with np.errstate(all="ignore"):
        for a, (b, nb) in zip(cur, start):
            if sel is not None:
                a, b, nb = a[sel], b[sel], nb[sel]
            bound = a * a
            bound += nb
            bound *= c
            gap = a - b
            np.abs(gap, out=gap)
            if sel is None:
                cand &= gap <= bound
                if 2 * np.count_nonzero(cand) <= cand.size:
                    sel = np.flatnonzero(cand)
            else:
                sel = sel[gap <= bound]
        if sel is None:
            sel, close = slice(None), cand  # mostly candidates: accept in place, no gather
        else:
            cand[:] = False
            if not sel.size:
                return cand
            close = np.ones(sel.size, dtype=bool)
        sure = np.zeros_like(close)
        if tol >= SURE_TOL:
            sure |= close
            for a, (b, nb) in zip(cur, start):
                a, b, nb = a[sel], b[sel], nb[sel]
                gap = a - b
                np.abs(gap, out=gap)
                lim = a * b
                lim += 1.0
                np.abs(lim, out=lim)
                lim *= 0.5 * tol
                sure &= gap < lim
                lim += nb  # inf if either is: an overflowing ab or an infinite start
                sure &= lim < np.inf
        rest = np.flatnonzero(close & ~sure)
        cand[sel] = sure
        if rest.size:
            if not isinstance(sel, slice):
                rest = sel[rest]
            exact = np.ones(rest.size, dtype=bool)
            for a, (b, nb) in zip(cur, start):
                exact &= _chord_grid(a[rest], _start_pair(b[rest], nb[rest])) < tol
            cand[rest] = exact
    return cand


def first_returns(m: RationalMap, coords: Sequence[np.ndarray], n_max: int, tol: float) -> np.ndarray:
    """int16 per start, for flat arrays of starts of m, one per variable: the
    first k <= n_max whose iterate ``returns`` within tol of the start, -1 at
    a first nan iterate (0/0, or the step after a pole transit), 0 for neither.

    A start is decided once; once at most half of the stepped starts are
    open, only those are stepped on.  n_max must be in 1..N_MAX_LIMIT, so
    that k fits the int16 result."""
    if not 1 <= n_max <= N_MAX_LIMIT:
        raise ValueError(f"n_max must be in 1..{N_MAX_LIMIT}, got {n_max}")
    cur = list(coords)
    start = return_start(cur)  # computed once, compared at every step
    period = np.zeros(cur[0].size, dtype=np.int16)
    cell = np.arange(cur[0].size)  # the start of each stepped entry
    open_ = np.ones(cur[0].size, dtype=bool)  # stepped entries not decided yet
    for k in range(1, n_max + 1):
        _, cur = step(m, cur)
        nan = np.isnan(cur[0])  # a nan iterate is never a return
        for c in cur[1:]:
            nan |= np.isnan(c)
        hit = returns(cur, start, tol, open_)
        hit |= open_ & nan
        period[cell[hit]] = np.where(nan[hit], -1, k)
        open_ ^= hit
        live = np.count_nonzero(open_)
        if live == 0:
            break
        if 2 * live <= open_.size:
            cur, cell = [c[open_] for c in cur], cell[open_]
            start = [tuple(arr[open_] for arr in s) for s in start]
            open_ = np.ones(live, dtype=bool)
    return period


def check_grid_map(m: RationalMap) -> None:
    """Refuse a map the grid layers cannot scan: not 2d, or with a complex
    coefficient (numpy would order its complex denominators by real part)."""
    if m.dim != 2:
        raise ValueError("grid kernels support 2d maps")
    if any(complex(c).imag != 0 for pair in m.components for p in pair for c in p.terms.values()):
        raise ValueError("grid kernels need real coefficients")


def period_grid(m: RationalMap, xs: np.ndarray, ys: np.ndarray, n_max: int, tol: float) -> np.ndarray:
    """Per-cell minimal period (int16): 0 none, -1 left the finite chart."""
    check_grid_map(m)
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    out = np.empty((ys.shape[0], xs.shape[0]), dtype=np.int16)

    def block(lo: int, hi: int) -> None:
        starts = [c.ravel() for c in np.meshgrid(xs, ys[lo:hi])]
        out[lo:hi, :] = first_returns(m, starts, n_max, tol).reshape(hi - lo, xs.shape[0])

    run_blocks(block, xs.shape[0], ys.shape[0])
    return out
