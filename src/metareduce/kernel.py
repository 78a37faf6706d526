"""Gaussian transition densities discretized to finite kernel matrices.

The continuous kernel has density N^{-1} exp(-I(x,y)/sigma^2) with
I(x,y) = <y - pi(x), cov^{-1} (y - pi(x))> / 2, the one-step rate
``model.rate(y - pi(x))`` of the model's noise law.  On a grid the matrix entry
is exp(-I(x,y)/sigma^2): the constant N and the cell volume cancel in the row
normalization, the finite-volume surrogate for conditioning the chain on
staying in the box.
``trace_kernel`` imports scipy.linalg itself, so kernel set-up never loads it.

The cache keeps kernels as ``<key>.kern`` data and ``<key>.meta.json``, keyed
on ``kernel_metadata``.  Under ``derived/<kind>``, per ``DERIVED`` kind, keyed
also on ``CACHE_SCHEMA`` and: the kernel's top k eigenvalues, on k; the trace
on M, on M's grid indices; its top-N eigenpairs and each ball's QSD and next
modulus, on the balls' grid indices (M is their union); the H table and the
largest relative change of H under grid refinement (one float), on r_hop and
the balls' centres and radii, but not on sigma; the Monte Carlo normals, on
the seed, the stream and numpy's version alone (``montecarlo.Normals``).  No
entry records theta, an MC budget, the refinement tolerance (``validate``
judges the float) or a path.  A save makes every derived folder, so a
kernels-only cache keeps its top-level listing.  Metadata records its data's
CRC-32, so damaged data is a miss.  Bump ``KERNEL_SCHEMA`` when a kernel's
bits change, ``CACHE_SCHEMA`` when a derived entry's bits do.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateRow, NonRecurrentComplement, NumericError

ROW_SUM_TOL = 1e-12
TRACE_ROW_TOL = 1e-10
RAW_ROW_FLOOR = 1e-300          # least sum of a row's exp(-rate/sigma^2)
KERNEL_SCHEMA = 4               # bump when a cached kernel's bits change
CACHE_SCHEMA = 4                # bump when a derived entry's bits change
ROW_CHUNK = 256                 # kernel rows assembled per block
GATHER_COLS = 64                # columns of Id - K_CC gathered per block
DERIVED = ("spectrum", "trace", "eigen", "qsd", "table", "refinement",
           "normals")


@dataclass(frozen=True)
class KernelMatrix:
    """Dense nonnegative matrix over grid-cell indices.

    ``kind`` is "stochastic" (rows sum to 1) or "substochastic" (rows sum to
    at most 1).  ``domain`` holds the flattened grid indices the rows/columns
    refer to, so sub-kernels remember where they live.
    """

    matrix: np.ndarray
    kind: str
    domain: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "domain", np.asarray(self.domain, dtype=int))
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise NumericError("kernel matrix must be square")
        if m.shape[0] != self.domain.size:
            raise NumericError("domain size must match matrix dimension")
        if (m < 0).any():
            raise NumericError("kernel matrix entries must be nonnegative")
        sums = m.sum(axis=1)
        if self.kind == "stochastic":
            if np.abs(sums - 1.0).max() > ROW_SUM_TOL:
                raise NumericError("stochastic kernel rows must sum to 1")
        elif self.kind == "substochastic":
            if sums.max() > 1.0 + ROW_SUM_TOL:
                raise NumericError("substochastic kernel rows must sum to <= 1")
        else:
            raise NumericError(f"unknown kernel kind '{self.kind}'")

    @property
    def size(self):
        return self.matrix.shape[0]

    def local_indices(self, subset):
        """Positions inside this kernel's domain of the given grid indices."""
        pos = np.searchsorted(self.domain, subset)
        if (pos >= self.domain.size).any() or (self.domain[pos] != subset).any():
            raise NumericError("subset is not contained in the kernel domain")
        return pos


def discretize_kernel(model, grid):
    """Row-normalized exp(-rate/sigma^2) on all grid nodes, in one buffer.

    Rows are assembled ``ROW_CHUNK`` at a time so the (n, n, d) difference
    tensor is never materialized in full.
    """
    if model.sigma <= 0:
        raise NumericError("discretize_kernel needs sigma > 0")
    pts = grid.points()
    n = grid.n_nodes
    images = model.pi(pts)
    k = np.empty((n, n))
    for start in range(0, n, ROW_CHUNK):
        stop = min(start + ROW_CHUNK, n)
        diffs = pts[None, :, :] - images[start:stop, None, :]
        k[start:stop] = np.exp(-model.rate(diffs) / model.sigma ** 2)
    sums = k.sum(axis=1)
    if sums.min() < RAW_ROW_FLOOR:
        raise DegenerateRow(
            f"raw row sum {sums.min():.3g} underflowed; refine sigma or grid")
    k /= sums[:, None]
    return KernelMatrix(k, "stochastic", np.arange(n))


def escape_mass(kernel, subset):
    """Per-row mass sent from the subset to its complement, summed from the
    entries outside, not taken as 1 - (row sum): at small sigma it is far
    below machine epsilon but still positive."""
    loc = kernel.local_indices(np.asarray(subset, dtype=int))
    return np.delete(kernel.matrix[loc], loc, axis=1).sum(axis=1)


def killed_kernel(kernel, subset):
    """Sub-kernel of the process killed on first exit from the subset."""
    return killed_with_escape(kernel, subset)[0]


def killed_with_escape(kernel, subset):
    """The killed sub-kernel and its per-row escape masses, computed once;
    a proper subset of a stochastic kernel's domain must lose mass."""
    subset = np.asarray(subset, dtype=int)
    if subset.size == 0:
        raise NumericError("killed_kernel needs a nonempty subset")
    rows = escape_mass(kernel, subset)
    if subset.size == kernel.domain.size:
        warnings.warn("subset is the full domain; killed kernel equals the kernel")
        return KernelMatrix(kernel.matrix.copy(), kernel.kind,
                            kernel.domain.copy()), rows
    if kernel.kind == "stochastic" and rows.max() <= 0.0:
        raise NumericError("killing a proper subset must lose mass in some row")
    loc = kernel.local_indices(subset)
    return KernelMatrix(kernel.matrix[np.ix_(loc, loc)], "substochastic",
                        subset), rows


def trace_kernel(kernel, subset):
    """Kernel of the chain watched only on the subset.

    Computed as K_AA + K_AC (Id - K_CC)^{-1} K_CA through a dense solve.
    Rows are renormalized only to absorb solver residue below 1e-10.
    """
    if kernel.kind != "stochastic":
        raise NumericError("trace_kernel needs a stochastic kernel")
    subset = np.asarray(subset, dtype=int)
    if subset.size == kernel.domain.size:
        return KernelMatrix(kernel.matrix.copy(), "stochastic",
                            kernel.domain.copy())
    loc = kernel.local_indices(subset)
    comp = np.setdiff1d(np.arange(kernel.size), loc)
    K = kernel.matrix
    from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
    a = np.empty((comp.size, comp.size), order="F")    # LAPACK works in place
    for j in range(0, comp.size, GATHER_COLS):    # two takes beat np.ix_
        a[:, j:j + GATHER_COLS] = K.take(comp[j:j + GATHER_COLS],
                                         axis=1).take(comp, axis=0)
    np.negative(a, out=a)
    a[np.diag_indices(comp.size)] += 1.0    # a = Id - K_CC
    with warnings.catch_warnings():     # a singular matrix only warns
        warnings.simplefilter("ignore", LinAlgWarning)
        lu = lu_factor(a, overwrite_a=True)
    if np.abs(np.diag(lu[0])).min() < 1e-14:
        raise NonRecurrentComplement("(Id - K_cc) is singular to working precision")
    traced = K[np.ix_(loc, loc)]
    traced += K[np.ix_(loc, comp)] @ lu_solve(lu, K.T[np.ix_(loc, comp)].T,
                                              overwrite_b=True)
    sums = traced.sum(axis=1)
    if np.abs(sums - 1.0).max() > TRACE_ROW_TOL:
        raise NumericError(
            f"trace kernel lost probability: max row defect "
            f"{np.abs(sums - 1.0).max():.3g}")
    np.clip(traced, 0.0, None, out=traced)
    traced /= traced.sum(axis=1)[:, None]
    return KernelMatrix(traced, "stochastic", subset)


def invariant_measure(kernel):
    """Left fixed probability vector of a stochastic kernel by GTH state
    reduction (Grassmann, Taksar and Heyman, Oper. Res. 33, 1985): each
    pivot sums the eliminated state's row over the states that remain, so
    nothing cancels as sigma -> 0; a zero pivot means a reducible chain."""
    if kernel.kind != "stochastic":
        raise NumericError("invariant_measure needs a stochastic kernel")
    a = kernel.matrix.copy()
    for k in range(kernel.size - 1, 0, -1):
        pivot = a[k, :k].sum()
        if not pivot > 0.0:
            raise NumericError(f"state {k} reaches no lower state: the chain "
                               "is reducible")
        a[:k, k] /= pivot
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.ones(kernel.size)
    for k in range(1, kernel.size):
        pi[k] = pi[:k] @ a[:k, k]
    pi /= pi.sum()
    resid = np.abs(pi @ kernel.matrix - pi).sum()
    if resid > 1e-10:
        raise NumericError(f"invariant law residual {resid:.3g} above 1e-10")
    return pi


# --- cache ------------------------------------------------------------------

def kernel_metadata(model, grid):
    return {"kernel_schema": KERNEL_SCHEMA, "map_id": model.map_id,
            "map_params": model.map_params, "dim": model.dim,
            "box": model.box.tolist(), "nodes": list(grid.shape),
            "sigma": model.sigma, "cov": model.cov.tolist()}


def cache_key(meta):
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _entry(cache_dir, kind, meta):
    """Data path, metadata path and metadata, with CACHE_SCHEMA if derived."""
    d, ext = Path(cache_dir), ("kern", "meta.json")
    if kind != "kernel":
        meta, d = dict(meta, cache_schema=CACHE_SCHEMA), d / "derived" / kind
        ext = ("bin", "json")
    key = cache_key(meta)
    return d / f"{key}.{ext[0]}", d / f"{key}.{ext[1]}", meta


def _text(meta, crc):
    """Metadata bytes of an entry whose data has CRC-32 ``crc``."""
    return json.dumps(dict(meta, hash=cache_key(meta), crc32=crc),
                      sort_keys=True, indent=1).encode()


def save_entry(cache_dir, kind, meta, arrays):
    """Write the float64 arrays in turn, never joined, then the metadata,
    each through a temporary file and a rename: no partial pair is seen."""
    for sub in DERIVED:
        (Path(cache_dir) / "derived" / sub).mkdir(parents=True, exist_ok=True)
    data_path, meta_path, meta = _entry(cache_dir, kind, meta)
    data, crc = [np.ascontiguousarray(a, "<f8") for a in arrays], 0
    for a in data:
        crc = zlib.crc32(a, crc)
    for path, blobs in ((data_path, data), (meta_path, [_text(meta, crc)])):
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        with open(tmp, "wb") as f:
            f.writelines(blobs)
        os.replace(tmp, path)
    return cache_key(meta)


def load_entry(cache_dir, kind, meta, size=None):
    """The entry's float64 values (``size`` of them, if given) on an exact
    metadata and CRC-32 match, else None: a damaged file is a miss."""
    data_path, meta_path, meta = _entry(cache_dir, kind, meta)
    if (meta_path.exists() and data_path.exists()
            and (size is None or data_path.stat().st_size == 8 * size)):
        data = np.fromfile(data_path, dtype="<f8")
        if meta_path.read_bytes() == _text(meta, zlib.crc32(data)):
            return data
    return None


def save_kernel(cache_dir, model, grid, kernel):
    return save_entry(cache_dir, "kernel", kernel_metadata(model, grid),
                      [kernel.matrix])


def load_kernel(cache_dir, model, grid):
    """Return the cached kernel on an exact metadata match, else None."""
    n = grid.n_nodes
    k = load_entry(cache_dir, "kernel", kernel_metadata(model, grid), n * n)
    return None if k is None else KernelMatrix(k.reshape(n, n), "stochastic",
                                               np.arange(n))
