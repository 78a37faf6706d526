"""Uniform grids over the invariant box and membership index sets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BallConstructionFailed, ConfigError


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid covering the box exactly (nodes on the boundary).

    ``axes`` holds the per-axis node coordinates; flattened node ordering is
    C-order (last axis fastest).
    """

    axes: tuple

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(np.asarray(a, float) for a in self.axes))
        for a in self.axes:
            if a.size < 2:
                raise ConfigError("each axis needs at least 2 nodes")

    @classmethod
    def from_box(cls, box, nodes_per_axis):
        box = np.atleast_2d(np.asarray(box, float))
        if np.isscalar(nodes_per_axis):
            nodes_per_axis = [int(nodes_per_axis)] * len(box)
        axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(box, nodes_per_axis)]
        return cls(tuple(axes))

    @property
    def dim(self):
        return len(self.axes)

    @property
    def shape(self):
        return tuple(a.size for a in self.axes)

    @property
    def n_nodes(self):
        return int(np.prod(self.shape))

    @property
    def spacings(self):
        return np.array([a[1] - a[0] for a in self.axes])

    def points(self):
        """All node coordinates, shape (n_nodes, dim), C-order."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def nearest_index(self, x):
        """Flattened index of the node nearest to each point of x, shape
        (..., d), clipped to the box."""
        x = np.asarray(x, float)
        multi = [np.clip(np.round((x[..., k] - a[0]) / (a[1] - a[0])),
                         0, a.size - 1).astype(int)
                 for k, a in enumerate(self.axes)]
        return np.ravel_multi_index(multi, self.shape)

    def membership(self, structure):
        """Index sets for each ball, for M, and for the complement of M;
        raises BallConstructionFailed for a ball that holds no node."""
        pts = self.points()
        balls = [np.flatnonzero(row) for row in structure.membership(pts)]
        for k, b in enumerate(balls):
            if not b.size:
                raise BallConstructionFailed(
                    f"ball {k} (centre {structure.centers[k]}, radius "
                    f"{structure.radii[k]}) holds no grid node")
        m_set = np.unique(np.concatenate(balls)) if balls else np.array([], int)
        comp = np.setdiff1d(np.arange(self.n_nodes), m_set)
        return balls, m_set, comp
