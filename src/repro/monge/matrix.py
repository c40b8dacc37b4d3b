"""Matrix representation and the Monge predicate (§2).

Distance matrices are ``numpy`` float arrays holding exact lengths, with
``np.inf`` for "no path through here" — exactly the ``+∞`` padding of
Lemma 4.  One dtype is chosen per build
(:func:`repro.core.allpairs.matrix_dtype`): ``float32`` when every
coordinate of the scene is an integer and ``3·D < 2^24``, where ``D``, the
bounding-box semi-perimeter plus the sum of obstacle perimeters, bounds
every finite distance; ``float64`` otherwise.  Every sum the solve forms
has at most three terms of size at most ``D``, so below ``2^24`` float32
adds, compares and takes minima exactly like float64.  The kernels here
keep the dtype of their operands (float32 ⊗ float32 is float32) and
never widen it.

A matrix ``M`` is Monge iff for all adjacent rows/columns
``M[i,j] + M[i+1,j+1] <= M[i,j+1] + M[i+1,j]``.  Lemma 1: path-length
matrices between two disjoint boundary portions of a convex region with a
clear boundary are Monge (given the right orderings); Fig. 4(b) shows the
orderings matter — hence :func:`is_monge` is used *at runtime* by the
conquer steps to certify a block before the SMAWK fast path is taken.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

INF = float("inf")

MatrixLike = Union[np.ndarray, Sequence[Sequence[float]], "MongeFlag"]


class MongeFlag:
    """An array bundled with its (memoised) Monge certification.

    The conquer engines re-multiply the same blocks; wrapping a block once
    makes every later :func:`is_monge` / ``minplus_auto`` call on it a
    cached O(1) flag read instead of an O(βγ) re-certification.  The
    wrapped array must not be mutated afterwards.
    """

    __slots__ = ("array", "_monge")

    def __init__(self, array: MatrixLike, monge: Optional[bool] = None) -> None:
        self.array = (
            array.array if isinstance(array, MongeFlag) else as_matrix(array)
        )
        self._monge = monge

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def T(self) -> np.ndarray:
        return self.array.T

    def monge(self) -> bool:
        """Certify once, answer from the flag ever after."""
        if self._monge is None:
            self._monge = is_monge(self.array)
        return self._monge


def as_matrix(m: MatrixLike) -> np.ndarray:
    """Normalise to a 2-D float array (unwrapping :class:`MongeFlag`):
    float32 and float64 arrays keep their dtype, anything else becomes
    float64."""
    if isinstance(m, MongeFlag):
        return m.array
    a = np.asarray(m)
    if a.dtype not in (np.float32, np.float64):
        a = a.astype(np.float64)
    if a.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {a.shape}")
    return a


def is_monge(m: MatrixLike, strict_finite: bool = False) -> bool:
    """Check the Monge (quadrangle) inequality on every adjacent 2×2.

    ``+∞`` entries are allowed as whole rows/columns (vacuously Monge)
    and in Lemma 4's padding shape: after dropping all-∞ rows and
    columns, the remaining ∞ set must be closed under moving down and
    right (bottom rows / right columns / their staircase union).
    Scattered ∞ entries make the adjacent-2×2 check unsound — ``∞ ≤ ∞``
    windows certify nothing about non-adjacent quadruples — so such
    matrices are rejected rather than mis-certified.  With the closure
    requirement, adjacent Monge provably implies the full quadrangle
    inequality in extended arithmetic: any ∞ region corner inside a
    finite-cornered rectangle shows up as an adjacent window with three
    finite entries, which the check fails; reinserting all-∞ rows and
    columns preserves the inequality (either side containing them is ∞).
    """
    if isinstance(m, MongeFlag) and not strict_finite:
        return m.monge()
    a = as_matrix(m)
    if a.shape[0] < 2 or a.shape[1] < 2:
        return True
    inf_mask = np.isinf(a)
    if inf_mask.any():
        if strict_finite:
            return False
        # all-∞ rows/columns are vacuous: certify the reduced matrix
        keep_r = ~inf_mask.all(axis=1)
        keep_c = ~inf_mask.all(axis=0)
        a = a[np.ix_(keep_r, keep_c)]
        if a.shape[0] < 2 or a.shape[1] < 2:
            return True
        inf_mask = inf_mask[np.ix_(keep_r, keep_c)]
        down_right_closed = (
            not (inf_mask[:-1, :] & ~inf_mask[1:, :]).any()
            and not (inf_mask[:, :-1] & ~inf_mask[:, 1:]).any()
        )
        if not down_right_closed:
            return False
    lhs = a[:-1, :-1] + a[1:, 1:]
    rhs = a[:-1, 1:] + a[1:, :-1]
    # both inf -> vacuously fine (inf <= inf is True in numpy)
    with np.errstate(invalid="ignore"):
        ok = lhs <= rhs
    both_inf = np.isinf(lhs) & np.isinf(rhs)
    return bool((ok | both_inf).all())


def pad_matrix(m: MatrixLike, rows: int, cols: int) -> np.ndarray:
    """Pad with ``+∞`` on the bottom/right to the requested shape (Lemma 4).

    Padding with ``+∞`` preserves the Monge property, which is exactly why
    the paper can equalise matrix dimensions before multiplying.
    """
    a = as_matrix(m)
    r, c = a.shape
    if rows < r or cols < c:
        raise ValueError("cannot pad to a smaller shape")
    out = np.full((rows, cols), INF, dtype=a.dtype)
    out[:r, :c] = a
    return out
