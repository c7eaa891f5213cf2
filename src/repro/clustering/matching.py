"""Maximum-weight bipartite matching via the Hungarian algorithm.

The cluster re-indexing step of Sec. V-B maps the K freshly computed
K-means clusters onto the K historical cluster indices so that the sum of
similarities ``Σ_k w_{k,φ(k)}`` is maximized (Eq. 11).  This is the
classic assignment problem; we implement the O(n³) Hungarian algorithm
(Jonker–Volgenant potentials variant) from scratch and expose both
min-cost and max-weight entry points.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataError

_INF = float("inf")


def minimum_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Solve the square assignment problem, minimizing total cost.

    Args:
        cost: Square matrix of shape ``(n, n)``; ``cost[i, j]`` is the cost
            of assigning row ``i`` to column ``j``.

    Returns:
        Array ``assignment`` of shape ``(n,)`` where row ``i`` is assigned
        to column ``assignment[i]``; the assignment minimizes the total
        cost.
    """
    matrix = np.asarray(cost, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DataError(f"cost matrix must be square, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise DataError("cost matrix contains NaN or infinite entries")
    n = matrix.shape[0]
    if n == 0:
        return np.empty(0, dtype=int)

    # Jonker–Volgenant style shortest augmenting path algorithm with
    # 1-based sentinel row/column 0.  The loops index Python lists of
    # Python floats: the same IEEE double arithmetic as numpy scalars,
    # without a numpy scalar object per element access.
    rows = matrix.tolist()
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    # way[j] = predecessor column of column j on the augmenting path
    match = [0] * (n + 1)  # match[j] = row matched to column j

    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [_INF] * (n + 1)
        way = [0] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            row = rows[i0 - 1]
            u_i0 = u[i0]
            delta = _INF
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u_i0 - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        # Augment along the path back to the sentinel.
        while j0 != 0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1

    assignment = [0] * n
    for j in range(1, n + 1):
        assignment[match[j] - 1] = j - 1
    return np.array(assignment, dtype=int)


def maximum_weight_assignment(weights: np.ndarray) -> np.ndarray:
    """Solve the square assignment problem, maximizing total weight.

    This is the form used by Eq. 11 of the paper: rows are the K-means
    cluster indices ``k``, columns are the historical indices ``j``, and
    ``weights[k, j]`` is the similarity ``w_{k,j}``.

    Returns:
        Array ``phi`` where K-means cluster ``k`` maps to historical index
        ``phi[k]``.
    """
    matrix = np.asarray(weights, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DataError(
            f"weight matrix must be square, got shape {matrix.shape}"
        )
    return minimum_cost_assignment(matrix.max() - matrix)
