"""Composite exponents read from piecewise Chebyshev fits on rays.

Every transform of the package acts ray by ray: a radial transform reads
its source at ``u y``, and ``convolve``, ``conv_power`` and
``j_beta_inverse`` read their sources at ``y`` or ``s y``.  A *composite*
exponent, one built on a radial transform, costs a quadrature per row, so
a depth-``d`` composition read directly costs about ``(21 P)**d`` leaf
rows.  So each radial transform's output is a :class:`RayFits`: it keeps
fits of itself on the rays it is read on and answers each read from
them or directly, and its readers just call it.  A leaf exponent (a closed
form, ``char_exponent``, or a caller's callable) is always read directly.

The choice is a commitment per ray.  While no ray is committed, a batch
no larger than the points of the pieces from 0 to its largest row on
each side of the first coordinate is read directly.  A ray commits once
one batch's rows on it outnumber ``RAY_POINTS`` times the pieces they
miss; from then on each of its missing pieces is fitted when a read first
falls in it.  A ray whose fit stops on its source's noise is no longer
committed.

The fits: on the ray of direction ``d``, ``g(t) = phi(t d)`` is fitted as
``t p(t)`` (Trefethen, *Approximation Theory and Approximation Practice*,
2013) on canonical pieces, the head ``(0, 1/8]`` and the dyadic
``(2**(k-1), 2**k]``, so that ``p``'s relative accuracy holds down to
radius 0.  A piece is fitted from the exponent at its ``RAY_POINTS``
Chebyshev points, all pending pieces of a read in one batch, and accepted
when its last ``_TAIL`` coefficients are within ``CHOP_TOL`` of its
largest value.  Otherwise it bisects, at most ``RAY_SPLITS`` times and
only while that pays (``_PLATEAU``); a head that fails hands over to the
dyadic pieces below it.  The radii of a piece still open then are read
directly, as are radii at or below ``RAY_FLOOR``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

# Chebyshev points of the first kind on [-1, 1], and the DCT-II that maps
# a piece's values there to its Chebyshev coefficients (math.cos: numpy's
# vector cosine would load its kernels into every process that imports)
RAY_POINTS = 25
_CHEB_X = np.array([math.cos(math.pi * (j + 0.5) / RAY_POINTS) for j in range(RAY_POINTS)])
_DCT = np.array([[(2.0 - (k == 0)) / RAY_POINTS * math.cos(math.pi * k * (j + 0.5) / RAY_POINTS)
                  for j in range(RAY_POINTS)] for k in range(RAY_POINTS)])
# the dyadic pieces (2**(k-1), 2**k] of a ray run from k = _K_LO, just
# above the floor; radii at or below the floor are read directly, so that a
# power read at 0 sees the exponent's own
_K_LO = -39
RAY_FLOOR = 2.0 ** (_K_LO - 1)
# the head piece (0, 2**_HEAD_K] stands for the dyadic pieces below it
# until it fails to converge, as at a fractional power at 0
_HEAD_K = -3
_HEAD = _HEAD_K - _K_LO + 1
CHOP_TOL = 1e-14
_TAIL = 6
RAY_SPLITS = 6
# a piece resolved to below _PLATEAU bisects only while each bisection
# lowers its tail _GAIN-fold; a tail that stays put is the source's noise
_PLATEAU = 1e-8
_GAIN = 16.0
_CELLS = 2**RAY_SPLITS
# rays whose fits one exponent keeps; a read on more rays stays direct
RAY_CACHE = 128
# accepted pieces one exponent keeps before it starts over
_LEAF_CAP = 4096


def _piece(t: np.ndarray) -> np.ndarray:
    """Index ``j = k - _K_LO`` of the dyadic piece ``(2**(k-1), 2**k]``
    that holds each radius above the floor, exactly."""
    m, e = np.frexp(t)
    return e - (m == 0.5) - _K_LO


def _pieces(top: float) -> int:
    """Pieces from 0 to radius ``top``: the head, then the dyadic ones."""
    m, e = math.frexp(top)
    return max(e - (m == 0.5) - _HEAD_K, 0) + 1


def _join(*pieces: tuple) -> tuple:
    """Pending pieces, column by column."""
    return tuple(np.concatenate(col) for col in zip(*pieces))


def _piece_ends(j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.ldexp(1.0, j + _K_LO - 1), np.ldexp(1.0, j + _K_LO)


def _rays(Y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of a batch as rays: their rounded unit directions (rows
    that are positive multiples of one frequency share one, even when
    their directions differ in the last bits), each row's ray and its
    norm.  Zero rows have norm 0 and ray 0.  Past ``RAY_CACHE`` rays the
    rest of the rows are left unassigned."""
    norm = np.sqrt((Y * Y).sum(axis=1))
    live = np.flatnonzero(norm > 0.0)
    # rounded to 13 decimals, as np.round does it; + 0.0 drops -0.0
    key = np.rint(Y[live] / norm[live, None] * 1e13) / 1e13 + 0.0
    # one ray at a time, in order of first row: a batch holds few, and a
    # sort would load numpy's sort kernels into the process
    ray = np.zeros(len(Y), dtype=int)
    open_, keys = np.ones(len(live), dtype=bool), []
    while open_.any() and len(keys) <= RAY_CACHE:
        i = open_.argmax()
        same = (key == key[i]).all(axis=1)
        ray[live[same]] = len(keys)
        keys.append(key[i])
        open_ &= ~same
    return np.array(keys).reshape(-1, Y.shape[1]), ray, norm


class RayFits:
    """An exponent that keeps piecewise Chebyshev fits of itself on
    rays, and answers each read from them or directly.

    ``exponent`` is the direct evaluator.  Each dyadic piece of a ray
    points at a slot of ``_CELLS`` cells, and each cell at the accepted
    piece that covers it, or at none (-1), whose radii are read directly.
    The dyadic pieces under the head share its slot while the head holds.
    Nothing is fitted before the first read.
    """

    def __init__(self, exponent):
        self.exponent = exponent
        self.dirs: Optional[np.ndarray] = None

    def clear(self, dim: int) -> None:
        self.rays: dict = {}  # key bytes -> ray
        self.dirs = np.zeros((0, dim))
        self.committed = np.zeros(0, dtype=bool)  # each ray is read from its fits
        self.slots = np.zeros((0, 0), dtype=int)  # (ray, dyadic piece) -> slot, or -1
        self.headless = np.zeros(0, dtype=bool)  # each ray's head failed
        self.cells = np.zeros((0, _CELLS), dtype=np.int32)  # (slot, cell) -> leaf, or -1
        self.coef = np.zeros((RAY_POINTS, 0), dtype=complex)  # (term, leaf)
        self.ends = np.zeros((2, 0))  # each leaf's (lo, hi)
        self.length = np.zeros(0, dtype=int)  # each leaf's terms after the chop

    def __call__(self, Y: np.ndarray) -> np.ndarray:
        """The exponent at the rows ``Y (n, dim)``: from the fits where
        they cover a row, after fitting the pieces that committed rays
        miss; directly elsewhere."""
        if self.dirs is None or not self.committed.any():
            # a quadrature's reads span their rays from 0, so they miss
            # the pieces from 0 to each side's largest row (rows whose
            # first coordinates have opposite signs lie on different
            # rays); a batch no larger than their points stays direct
            side = (Y * Y).sum(axis=1) * np.sign(Y[:, 0])
            tops = side.max(initial=0.0), -side.min(initial=0.0)
            least = sum(_pieces(math.sqrt(top)) for top in tops if top > 0.0)
            if len(Y) <= RAY_POINTS * least:
                return self.exponent(Y)
        keys, ray, t = _rays(Y)
        if len(keys) > RAY_CACHE:
            return self.exponent(Y)
        if self.dirs is None or self.length.size > _LEAF_CAP or \
                len(self.rays) + sum(k.tobytes() not in self.rays for k in keys) > RAY_CACHE:
            self.clear(Y.shape[1])
        local = np.array([self._ray(k) for k in keys], dtype=int)
        live = np.flatnonzero(t > RAY_FLOOR)
        r, j = local[ray[live]], _piece(t[live])
        width = int(j.max(initial=0)) + 1 - self.slots.shape[1]
        if width > 0:
            self.slots = np.pad(self.slots, ((0, 0), (0, width)), constant_values=-1)
        self._commit(r, j)
        on = self.committed[r]
        self._fit(r[on], j[on])
        lo, hi = _piece_ends(j)
        cell = np.ceil((t[live] - lo) / (hi - lo) * _CELLS).astype(int) - 1
        slot = self.slots[r, j]
        held = np.flatnonzero(slot >= 0)
        leaf = np.full(len(t), -1)
        leaf[live[held]] = self.cells[slot[held], np.clip(cell[held], 0, _CELLS - 1)]
        out = np.zeros(len(t), dtype=complex)
        fit = np.flatnonzero(leaf >= 0)
        if len(fit):
            out[fit] = t[fit] * self._series(leaf[fit], t[fit])
        direct = np.flatnonzero((leaf < 0) & (t > 0.0))
        if len(direct):
            out[direct] = self.exponent(Y[direct])
        return out

    def _commit(self, r: np.ndarray, j: np.ndarray) -> None:
        """Commit each ray whose rows ``r`` (at dyadic pieces ``j``)
        outnumber ``RAY_POINTS`` times the pieces they miss; a piece under
        a live head counts as the head."""
        miss = np.zeros(self.slots.shape, dtype=bool)
        miss[r, np.where((j < _HEAD) & ~self.headless[r], 0, j)] = True
        missing = (miss & (self.slots < 0)).sum(axis=1)
        self.committed |= np.bincount(r, minlength=len(missing)) > RAY_POINTS * missing

    def _ray(self, key: np.ndarray) -> int:
        k = key.tobytes()
        if k not in self.rays:
            self.rays[k] = len(self.rays)
            self.dirs = np.vstack([self.dirs, key / np.sqrt((key * key).sum())])
            self.committed = np.append(self.committed, False)
            self.slots = np.vstack([self.slots, np.full(self.slots.shape[1], -1)])
            self.headless = np.append(self.headless, False)
        return self.rays[k]

    def _slots(self, r: np.ndarray, j) -> np.ndarray:
        """New empty slots, one for each ray ``r`` and its pieces ``j``."""
        new = len(self.cells) + np.arange(len(r))
        self.cells = np.vstack([self.cells, np.full((len(r), _CELLS), -1, dtype=np.int32)])
        for s, rr, jj in zip(new, r, j):
            self.slots[rr, jj] = s
        return new

    def _pieces(self, r: np.ndarray, j: np.ndarray, head: bool) -> tuple:
        """Pending whole pieces in new slots: each ray ``r``'s dyadic piece
        ``j``, or its head.  A pending piece is its ray, slot, ends, the
        cells it covers, its bisections left (-1 for a head) and its
        parent's tail ratio."""
        n = len(r)
        if head:
            slot = self._slots(r, [slice(0, _HEAD)] * n)
            lo, hi = np.zeros(n), np.full(n, 2.0**_HEAD_K)
        else:
            slot = self._slots(r, j)
            lo, hi = _piece_ends(j)
        return (r, slot, lo, hi, np.zeros(n, dtype=int), np.full(n, _CELLS),
                np.full(n, -1 if head else RAY_SPLITS), np.full(n, np.inf))

    def _fit(self, r: np.ndarray, j: np.ndarray) -> None:
        """Fit the dyadic pieces ``j`` of rays ``r`` where they are missing,
        every pending piece of a round from one batched call.  A piece
        under the head is first the head's, and its own only after the
        head of its ray failed."""
        # the missing pieces, each once; a mask, not a sort or numpy's
        # unique, whose kernels would each add to the process's memory
        miss = np.zeros(self.slots.shape, dtype=bool)
        miss[r, j] = True
        r, j = np.nonzero(miss & (self.slots < 0))
        if not len(r):
            return
        low = (j < _HEAD) & ~self.headless[r]
        # the requested pieces under each head, should it fail
        below = {h: j[low & (r == h)] for h in sorted(set(r[low].tolist()))}
        head = np.array(list(below), dtype=int)
        pending = _join(self._pieces(head, head, True), self._pieces(r[~low], j[~low], False))
        coefs, ends, lengths = [self.coef], [self.ends], [self.length]
        leaves = self.length.size
        while len(pending[0]):
            r, slot, lo, hi, c0, c1, splits, parent = pending
            half = 0.5 * (hi - lo)
            t = (lo + half)[:, None] + half[:, None] * _CHEB_X
            x = t[:, :, None] * self.dirs[r][:, None, :]
            vals = self.exponent(x.reshape(-1, x.shape[2])).reshape(t.shape) / t
            # sums, not a matrix product: no BLAS buffers for 25 terms
            c = np.stack([(vals * row).sum(axis=1) for row in _DCT], axis=1)
            scale = np.abs(vals).max(axis=1)
            tail = np.abs(c[:, -_TAIL:]).max(axis=1)
            with np.errstate(invalid="ignore", divide="ignore"):
                ok = tail <= CHOP_TOL * scale
                ratio = tail / scale
                split = ~ok & (splits > 0) & ((ratio >= _PLATEAU) | (ratio * _GAIN <= parent))
            # an accepted piece keeps the terms whose tail sums to more
            # than a tenth of the chop level
            tail = np.cumsum(np.abs(c[ok, ::-1]), axis=1)[:, ::-1]
            lengths.append(np.maximum((tail > 0.1 * CHOP_TOL * scale[ok, None]).sum(axis=1), 1))
            coefs.append(c[ok].T)
            ends.append(np.array([lo[ok], hi[ok]]))
            for s, a, b, leaf in zip(slot[ok], c0[ok], c1[ok], leaves + np.arange(ok.sum())):
                self.cells[s, a:b] = leaf
            leaves += int(ok.sum())
            # a piece that stops on its source's noise ends its ray's
            # commitment: the ray's other pieces would fail the same way
            self.committed[r[~ok & ~split & (splits > 0) & (ratio < _PLATEAU)]] = False
            # a failed head hands the requested pieces under it to their
            # own fits, and a failed piece with bisections left bisects
            failed = r[~ok & (splits < 0)]
            self.headless[failed] = True
            self.slots[failed, :_HEAD] = -1
            hr = np.repeat(failed, [len(below[h]) for h in failed])
            hj = np.concatenate([below[h] for h in failed] + [np.zeros(0, dtype=int)])
            mid, cm = lo + half, (c0 + c1) // 2
            left = (lo, mid, c0, cm)
            right = (mid, hi, cm, c1)
            pending = _join(self._pieces(hr, hj, False), *(
                (r[split], slot[split], *(col[split] for col in side), splits[split] - 1,
                 ratio[split]) for side in (left, right)))
        self.coef = np.concatenate(coefs, axis=1)
        self.ends = np.concatenate(ends, axis=1)
        self.length = np.concatenate(lengths)

    def _series(self, leaf: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Each leaf's series at its radius by Clenshaw's recurrence, one
        term of all rows at a time."""
        lo, hi = self.ends[:, leaf]
        x2 = 2.0 * (2.0 * t - lo - hi) / (hi - lo)
        b1 = b2 = np.zeros(len(t), dtype=complex)
        for k in range(int(self.length[leaf].max()) - 1, 0, -1):
            b1, b2 = self.coef[k, leaf] + x2 * b1 - b2, b1
        return self.coef[0, leaf] + 0.5 * x2 * b1 - b2
