"""(min,+) matrix products — Lemmas 3, 4, 5 of the paper.

Three strategies, all exact:

``minplus_naive``
    The brute-force CREW product: a vectorised triple loop.  Simulated
    cost: time ``O(log γ)`` (a min-reduction tree over the inner
    dimension), work ``O(αβγ)``.

``minplus_monge``
    The Lemma 3 product: when the *right* factor ``B`` (inner × cols) is
    Monge, each output row is a SMAWK row-minima instance — adding the
    per-row offsets ``A[i, ·]`` preserves Monge-ness in (inner, col) — for
    ``O(α(β+γ))`` work, i.e. the paper's ``O(αβ)`` under Lemma 4's size
    discipline.  Simulated time ``O(log γ)``.

``minplus_auto``
    Certify-then-dispatch, the engines' entry point (Lemma 5 in spirit):
    verify the Monge property of ``B`` (cost ``O(βγ)`` — cheaper than the
    product) and take the fast path; else try the transposed orientation
    (``A`` Monge); else fall back to the naive product.  Always correct,
    fast exactly when the paper's partitioning discipline made the block
    Monge.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.errors import MongeError
from repro.monge.matrix import INF, MongeFlag, as_matrix, is_monge
from repro.monge.smawk import smawk_row_minima, smawk_row_minima_array
from repro.pram.machine import PRAM, ambient

#: cells in one ``(k, α, γ)`` slab of candidate sums (512 KiB in float64,
#: 256 KiB in float32): a slab stays in cache while it is reduced into
#: the output
_SLAB_CELLS = 1 << 16


def _log2(n: int) -> int:
    return max(1, math.ceil(math.log2(max(2, n))))


def minplus_naive(a, b, pram: Optional[PRAM] = None) -> np.ndarray:
    """Brute-force (min,+) product: candidate sums ``a[:, k] + b[k, :]``
    are formed a cache-sized slab of ``k`` values at a time and reduced
    into the output over the slab's leading axis.  A large output takes
    one ``k`` per slab; a small one (a patch row block) takes many, so
    the Python loop stays short either way."""
    pram = pram or ambient()
    a = as_matrix(a)
    b = as_matrix(b)
    al, inner = a.shape
    inner2, bc = b.shape
    if inner != inner2:
        raise ValueError(f"inner dimensions differ: {a.shape} vs {b.shape}")
    pram.charge(time=_log2(max(inner, 1)) + 1, work=al * bc * max(inner, 1),
                width=al * bc)
    dtype = np.result_type(a, b)
    out = np.full((al, bc), INF, dtype=dtype)
    if inner == 0 or out.size == 0:
        return out
    step = max(1, _SLAB_CELLS // out.size)
    slab = np.empty((min(step, inner), al, bc), dtype=dtype)
    at = a.T
    for k0 in range(0, inner, step):
        k1 = min(inner, k0 + step)
        part = slab[: k1 - k0]
        np.add(at[k0:k1, :, None], b[k0:k1, None, :], out=part)
        np.minimum(out, part[0] if len(part) == 1 else part.min(axis=0), out=out)
    return out


def minplus_monge(
    a,
    b,
    pram: Optional[PRAM] = None,
    check: bool = True,
    engine: str = "array",
) -> np.ndarray:
    """Lemma 3: (min,+) product with a Monge right factor via SMAWK.

    ``engine="array"`` (the default) solves all output rows in one batched
    :func:`smawk_row_minima_array` call; ``engine="callable"`` keeps the
    original per-row recursive SMAWK — the generic fallback and the
    differential-test reference for the array kernel.
    """
    pram = pram or ambient()
    flag = b if isinstance(b, MongeFlag) else None
    a = as_matrix(a)
    b = as_matrix(b)
    al, inner = a.shape
    inner2, bc = b.shape
    if inner != inner2:
        raise ValueError(f"inner dimensions differ: {a.shape} vs {b.shape}")
    if check and not is_monge(flag if flag is not None else b):
        raise MongeError("right factor is not Monge; use minplus_auto")
    if engine not in ("array", "callable"):
        raise ValueError(f"unknown SMAWK engine {engine!r}")
    pram.charge(time=_log2(max(bc, 1)) + _log2(max(inner, 1)),
                work=al * (inner + bc), width=al * max(inner, bc))
    dtype = np.result_type(a, b)
    if inner == 0 or bc == 0 or al == 0:
        return np.full((al, bc), INF, dtype=dtype)
    if engine == "array":
        arg = smawk_row_minima_array(a, b)
        return np.add(
            a.ravel().take(arg + np.arange(0, al * inner, inner)[:, None]),
            b.ravel().take(arg * bc + np.arange(bc)),
        )
    out = np.full((al, bc), INF, dtype=dtype)
    ks = list(range(inner))
    js = list(range(bc))
    for i in range(al):
        arow = a[i]
        if not np.isfinite(arow).any():
            continue

        def entry(j: int, k: int) -> float:
            return arow[k] + b[k, j]

        arg = smawk_row_minima(js, ks, entry)
        for j, k in arg.items():
            out[i, j] = arow[k] + b[k, j]
    return out


def minplus_auto(a, b, pram: Optional[PRAM] = None) -> np.ndarray:
    """Certify-and-dispatch product used by the conquer steps (Lemma 5).

    The Monge *check* is charged too (it is part of the honest cost); the
    engines' partitioning makes chain-indexed blocks Monge so the fast path
    dominates, while scattered blocks silently fall back.
    """
    pram = pram or ambient()
    # MongeFlag operands certify once and answer from the flag thereafter
    a_flag = a if isinstance(a, MongeFlag) else None
    b_flag = b if isinstance(b, MongeFlag) else None
    a = as_matrix(a)
    b = as_matrix(b)
    if min(a.shape + b.shape) == 0:
        return np.full((a.shape[0], b.shape[1]), INF, dtype=np.result_type(a, b))
    pram.charge(time=1, work=b.size, width=b.size)
    if is_monge(b_flag if b_flag is not None else b):
        return minplus_monge(a, b, pram, check=False)
    pram.charge(time=1, work=a.size, width=a.size)
    if is_monge(a_flag if a_flag is not None else a):
        # C = min_k A[i,k]+B[k,j]; transpose: Cᵀ[j,i] = min_k Bᵀ[j,k]+Aᵀ[k,i]
        return minplus_monge(b.T, a.T, pram, check=False).T
    return minplus_naive(a, b, pram)
