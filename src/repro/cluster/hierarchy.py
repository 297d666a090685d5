"""Agglomerative hierarchical clustering — built from scratch.

The paper's step ⑤ runs agglomerative HC on the proximity matrix; this
module implements it (rather than calling scipy) per the reproduction
mandate, producing **scipy-compatible linkage matrices** so the test
suite can cross-validate every linkage method against
``scipy.cluster.hierarchy.linkage``.

Supported linkages (Lance–Williams updates): ``single``, ``complete``,
``average``, ``ward``.  Cuts: a fixed cluster count (the silhouette
cut's candidates and CFL's bipartition) and the **largest-gap
heuristic** — the piece that lets FedClust avoid a predefined number of
clusters.

Complexity is the textbook O(n³)/O(n²) masked-argmin formulation; the
"n" here is *clients*, which in FL experiments is tens to a few
thousand, far below where nearest-neighbour-chain implementations pay
off.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.distance import validate_distance_matrix

__all__ = [
    "LINKAGE_METHODS",
    "linkage",
    "cut_by_k",
    "auto_cut_gap",
    "merge_heights",
    "cophenetic_matrix",
    "canonical_labels",
]

LINKAGE_METHODS = ("single", "complete", "average", "ward")


def _lance_williams(
    method: str,
    d_ai: np.ndarray,
    d_bi: np.ndarray,
    d_ab: float,
    size_a: int,
    size_b: int,
    sizes_i: np.ndarray,
) -> np.ndarray:
    """Distance of the merged cluster (a∪b) to every other cluster i."""
    if method == "single":
        return np.minimum(d_ai, d_bi)
    if method == "complete":
        return np.maximum(d_ai, d_bi)
    if method == "average":
        return (size_a * d_ai + size_b * d_bi) / (size_a + size_b)
    if method == "ward":
        # Ward on Euclidean input distances; the standard LW form on the
        # distances themselves (scipy's convention).
        total = sizes_i + size_a + size_b
        return np.sqrt(
            (
                (sizes_i + size_a) * d_ai**2
                + (sizes_i + size_b) * d_bi**2
                - sizes_i * d_ab**2
            )
            / total
        )
    raise ValueError(f"unknown linkage method {method!r}; options: {LINKAGE_METHODS}")


def linkage(distance_matrix: np.ndarray, method: str = "average") -> np.ndarray:
    """Agglomerate ``n`` points given their square distance matrix.

    Returns an ``(n-1, 4)`` float array in scipy's format: columns are the
    two merged cluster ids (originals ``0..n-1``, merges ``n..2n-2``), the
    merge distance, and the merged cluster's size.  Ties are broken by the
    smallest pair of indices, matching a deterministic scan order.
    """
    if method not in LINKAGE_METHODS:
        raise ValueError(f"unknown linkage method {method!r}; options: {LINKAGE_METHODS}")
    d = validate_distance_matrix(distance_matrix)
    n = d.shape[0]
    if n < 2:
        raise ValueError("need at least 2 points to cluster")

    work = d.copy()
    np.fill_diagonal(work, np.inf)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.int64)
    # current_id[i] = linkage id of the cluster whose row i currently stores.
    current_id = np.arange(n)
    out = np.zeros((n - 1, 4))

    for step in range(n - 1):
        # Masked argmin over active×active (diagonal and dead rows at +inf).
        masked = np.where(active[:, None] & active[None, :], work, np.inf)
        flat = int(np.argmin(masked))
        a, b = divmod(flat, n)
        if a > b:
            a, b = b, a
        dist = masked[a, b]
        if not np.isfinite(dist):
            raise RuntimeError("exhausted finite distances; matrix malformed?")

        others = active.copy()
        others[a] = others[b] = False
        idx = np.flatnonzero(others)
        if idx.size:
            work[a, idx] = _lance_williams(
                method, work[a, idx], work[b, idx], dist, int(sizes[a]),
                int(sizes[b]), sizes[idx],
            )
            work[idx, a] = work[a, idx]

        id_a, id_b = int(current_id[a]), int(current_id[b])
        lo, hi = (id_a, id_b) if id_a < id_b else (id_b, id_a)
        out[step] = (lo, hi, dist, sizes[a] + sizes[b])

        sizes[a] += sizes[b]
        active[b] = False
        work[b, :] = np.inf
        work[:, b] = np.inf
        current_id[a] = n + step
    return out


def merge_heights(linkage_matrix: np.ndarray) -> np.ndarray:
    """The sequence of merge distances (column 2), ascending for
    monotonic linkages."""
    z = np.asarray(linkage_matrix, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != 4:
        raise ValueError(f"linkage matrix must be (n-1, 4), got {z.shape}")
    return z[:, 2].copy()


def _labels_from_merge_prefix(linkage_matrix: np.ndarray, n_merges: int) -> np.ndarray:
    """Cluster labels after applying the first ``n_merges`` merges."""
    z = np.asarray(linkage_matrix)
    n = z.shape[0] + 1
    parent = np.arange(n + n_merges)

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:  # path compression
            parent[i], i = root, parent[i]
        return root

    for step in range(n_merges):
        a, b = int(z[step, 0]), int(z[step, 1])
        new = n + step
        parent[find(a)] = new
        parent[find(b)] = new

    roots = np.array([find(i) for i in range(n)])
    return canonical_labels(roots)


def canonical_labels(raw: np.ndarray) -> np.ndarray:
    """Relabel arbitrary cluster ids to 0..k-1 by order of first appearance."""
    raw = np.asarray(raw)
    mapping: dict[int, int] = {}
    out = np.empty(len(raw), dtype=np.int64)
    for i, value in enumerate(raw):
        key = int(value)
        if key not in mapping:
            mapping[key] = len(mapping)
        out[i] = mapping[key]
    return out


def cut_by_k(linkage_matrix: np.ndarray, k: int) -> np.ndarray:
    """Labels for exactly ``k`` clusters (undo the last ``k-1`` merges)."""
    z = np.asarray(linkage_matrix)
    n = z.shape[0] + 1
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    return _labels_from_merge_prefix(z, n - k)


def auto_cut_gap(
    linkage_matrix: np.ndarray,
    max_clusters: int | None = None,
    min_gap_ratio: float = 0.0,
) -> np.ndarray:
    """Cut at the largest gap between consecutive merge heights.

    This is FedClust's "no predefined cluster count" mechanism: if the
    federation has G well-separated groups, the dendrogram's first
    ``n − G`` merges happen at small (within-group) distances and the
    remaining ``G − 1`` at large (between-group) distances; the largest
    jump sits exactly at the boundary.  Cutting there yields G clusters
    without specifying G.

    Parameters
    ----------
    max_clusters:
        Optional ceiling on the returned cluster count (the gap is then
        searched only among cuts producing ≤ this many clusters).
    min_gap_ratio:
        If the largest gap is smaller than ``min_gap_ratio`` times the
        final merge height, the data is considered unclustered and a
        single cluster is returned.  ``0.0`` disables the guard.
    """
    z = np.asarray(linkage_matrix)
    n = z.shape[0] + 1
    heights = z[:, 2]
    if n == 2:
        return np.zeros(2, dtype=np.int64) if heights[0] == 0 else cut_by_k(z, 1)

    # Gap after merge t (between heights[t] and heights[t+1]) corresponds
    # to stopping after t+1 merges → n − (t+1) clusters.
    gaps = np.diff(heights)
    if max_clusters is not None:
        if max_clusters < 1:
            raise ValueError(f"max_clusters must be >= 1, got {max_clusters}")
        # n - (t+1) <= max_clusters  ⇔  t >= n - max_clusters - 1
        first_valid = max(n - max_clusters - 1, 0)
        if first_valid >= len(gaps):
            return cut_by_k(z, min(max_clusters, n))
        gaps = gaps.copy()
        gaps[:first_valid] = -np.inf

    best = int(np.argmax(gaps))
    scale = heights[-1] if heights[-1] > 0 else 1.0
    if gaps[best] < min_gap_ratio * scale:
        return _labels_from_merge_prefix(z, n - 1)  # one cluster
    return _labels_from_merge_prefix(z, best + 1)


def cophenetic_matrix(linkage_matrix: np.ndarray) -> np.ndarray:
    """Square matrix of cophenetic distances (merge height joining i, j).

    Used by tests to check the dendrogram structure against scipy.
    """
    z = np.asarray(linkage_matrix)
    n = z.shape[0] + 1
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    out = np.zeros((n, n))
    for step in range(n - 1):
        a, b = int(z[step, 0]), int(z[step, 1])
        left, right = members.pop(a), members.pop(b)
        h = z[step, 2]
        li = np.array(left)[:, None]
        ri = np.array(right)[None, :]
        out[li, ri] = h
        out[ri.T, li.T] = h
        members[n + step] = left + right
    return out
