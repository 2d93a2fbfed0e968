"""Per-query best-first k-NN, run for a whole batch in lockstep rounds.

The object kernel answers k-NN batches of two or more with this driver:
every batch on the hB-, SS-, SR- and M-trees, and on the others every
batch the SOA kernel's exact frontier does not take
(``approximation_factor > 0``, a metric without ``bound_below_distance``,
no snapshot; see :mod:`repro.engine.soa.kernel`).  Every query keeps its own
Hjaltason–Samet frontier, exactly as the object kernel's heap search for
a batch of one (the single-query ``knn``) does: it pops its smallest
``(bound, push order)`` entry, stops once that bound exceeds ``kth / (1 +
eps)``, and pushes a child only while its bound is within ``kth / (1 +
eps)``.  A query's visits — and so its
result, also for ``eps > 0`` — are therefore the single query's, whatever
other queries share its batch or partition.

The batch advances in *rounds*: in each round every live query pops one
entry, and the popped ``(node, query)`` pairs are processed together —

- all leaf pairs with one row-wise distance pass and one
  ``(query, distance, oid)`` lexsort top-k merge (:class:`TopK`);
- all inner pairs with one ``(edge, query)`` bound vector over the
  children, pruned against each query's kth and appended as one sorted
  *run* per query.

A query's frontier is the set of its runs.  Each run is sorted by
``(bound, child order)`` and runs are kept in creation order, so the
smallest head by ``(bound, run age)`` is the entry the single-query heap
would pop (its push counter orders older expansions first).

The tree is any object with the fields below, laid out like a
:class:`~repro.engine.soa.snapshot.SOASnapshot` (one row per DFS
*occurrence*, edges in ``trav_children`` order), such as the object
kernel's reached tree:

``load(nodes)``
    Called with the nodes popped in a round before any of the fields
    below is read for them (the object kernel fetches new pages here).
``is_leaf``, ``first_edge``, ``n_edges``, ``edge_child``, ``node_ref``
    Per-occurrence and per-edge arrays.
``leaf_start``, ``leaf_end``, ``points``, ``oids``
    Each leaf occurrence's rows of the points and their oids.  The points
    may be float32: the scans upcast them exactly to float64.
``dedup``
    Scan each ``(page, query)`` pair once (the hB-tree's shared pages).
``mindist(e, q)``
    Lower bounds from query rows ``q`` to the child of edge ``e``.
"""

from __future__ import annotations

import numpy as np

from repro.distances import Metric

__all__ = ["TopK", "best_first_knn"]

def concat_ranges(counts: np.ndarray) -> np.ndarray:
    """``[0..counts[0]-1, 0..counts[1]-1, ...]`` without a Python loop."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    return np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)


class Growing:
    """An append-only array (rows of fixed shape) with amortized doubling.

    ``data`` is the backing buffer: rows ``[0, size)`` are valid, and it is
    replaced when it grows, so read it again after every :meth:`extend`.
    """

    def __init__(self, dtype, width: int | None = None):
        shape = (16,) if width is None else (16, width)
        self.data = np.empty(shape, dtype=dtype)
        self.size = 0

    def extend(self, rows) -> None:
        rows = np.asarray(rows)
        end = self.size + len(rows)
        if end > len(self.data):
            grown = np.empty(
                (max(end, 2 * len(self.data)),) + self.data.shape[1:],
                dtype=self.data.dtype,
            )
            grown[: self.size] = self.data[: self.size]
            self.data = grown
        self.data[self.size : end] = rows
        self.size = end


class TopK:
    """Every query's best ``k`` under the ``(distance, oid)`` total order.

    Rows of ``dist``/``oid`` hold each query's neighbours sorted, padded
    with ``inf``; the width grows only as far as some query needs, so a
    large ``k`` over a small index costs no more than the points seen.
    ``kth[i]`` is query ``i``'s current kth distance (``inf`` until it
    holds ``k``).
    """

    def __init__(self, n: int, k: int):
        self.k = k
        self.dist = np.full((n, 0), np.inf)
        self.oid = np.zeros((n, 0), dtype=np.int64)
        self.count = np.zeros(n, dtype=np.int64)
        self.kth = np.full(n, np.inf)

    def merge(self, q: np.ndarray, d: np.ndarray, o: np.ndarray) -> None:
        """Fold candidate rows ``(query, distance, oid)`` into the best k."""
        # Beyond the kth a candidate can never enter (ties at the kth still
        # can, under the oid tie-break).
        keep = d <= self.kth[q]
        q, d, o = q[keep], d[keep], o[keep]
        if not q.size:
            return
        users = np.unique(q)
        have = self.count[users]
        held = np.arange(self.dist.shape[1]) < have[:, None]
        q = np.concatenate((np.repeat(users, have), q))
        d = np.concatenate((self.dist[users][held], d))
        o = np.concatenate((self.oid[users][held], o))
        order = np.lexsort((o, d, q))
        q, d, o = q[order], d[order], o[order]
        first = np.flatnonzero(np.concatenate(([True], q[1:] != q[:-1])))
        sizes = np.diff(np.append(first, len(q)))
        rank = np.arange(len(q)) - np.repeat(first, sizes)
        top = rank < self.k
        q, d, o, rank = q[top], d[top], o[top], rank[top]
        width = self.dist.shape[1]
        need = int(rank.max()) + 1
        if need > width:
            n = len(self.count)
            self.dist = np.hstack((self.dist, np.full((n, need - width), np.inf)))
            self.oid = np.hstack((self.oid, np.zeros((n, need - width), np.int64)))
        self.dist[q, rank] = d
        self.oid[q, rank] = o
        self.count[users] = np.minimum(sizes, self.k)
        if self.dist.shape[1] == self.k:
            self.kth[users] = self.dist[users, -1]

    def results(self) -> list[list[tuple[int, float]]]:
        return [
            list(zip(self.oid[i, :c].tolist(), self.dist[i, :c].tolist()))
            for i, c in enumerate(self.count.tolist())
        ]


def _scan_leaves(tree, nodes, q, qs, metric, topk: TopK, scanned) -> None:
    """Score each ``(leaf, query)`` pair's points and merge them into the
    best k (each query appears at most once)."""
    if scanned is not None:
        fresh = np.ones(len(nodes), dtype=bool)
        for i, key in enumerate(zip(tree.node_ref[nodes].tolist(), q.tolist())):
            if key in scanned:
                fresh[i] = False
            else:
                scanned.add(key)
        nodes, q = nodes[fresh], q[fresh]
    starts = tree.leaf_start[nodes]
    sizes = tree.leaf_end[nodes] - starts
    nz = sizes > 0
    starts, sizes, q = starts[nz], sizes[nz], q[nz]
    if not q.size:
        return
    rows = np.repeat(starts, sizes) + concat_ranges(sizes)
    qrow = np.repeat(q, sizes)
    topk.merge(qrow, metric.pair_distances(tree.points[rows], qs[qrow]), tree.oids[rows])


def best_first_knn(
    tree,
    qs: np.ndarray,
    metric: Metric,
    shrink: float,
    topk: TopK,
    visits: np.ndarray,
    deadline=None,
) -> None:
    """Run every query's best-first search from occurrence 0 (the root).

    ``shrink`` is ``1 / (1 + eps)``.  Results accumulate in ``topk`` and
    per-query node visits in ``visits``, so a timeout (``deadline`` is
    checked once per round) leaves the work done so far in both.
    """
    n = len(qs)
    ent_node = Growing(np.int64)
    ent_bound = Growing(np.float64)
    ent_node.extend(np.zeros(n, dtype=np.int64))
    ent_bound.extend(np.zeros(n))
    # One root entry per query; run r holds entries [head[r], end[r]).
    run_q = np.arange(n, dtype=np.int64)
    run_head = np.arange(n, dtype=np.int64)
    run_end = run_head + 1
    stopped = np.zeros(n, dtype=bool)
    scanned: set | None = set() if tree.dedup else None
    while run_q.size:
        if deadline is not None:
            deadline.check()
        # Pop: per query, the run whose head is smallest by (bound, age);
        # the stable lexsort keeps older runs first among equal bounds.
        heads = ent_bound.data[run_head]
        order = np.lexsort((heads, run_q))
        sorted_q = run_q[order]
        lead = np.ones(len(order), dtype=bool)
        lead[1:] = sorted_q[1:] != sorted_q[:-1]
        pick = order[lead]
        q = run_q[pick]
        bound = heads[pick]
        node = ent_node.data[run_head[pick]]
        run_head[pick] += 1
        go = bound <= topk.kth[q] * shrink
        stopped[q[~go]] = True
        keep = (run_head < run_end) & ~stopped[run_q]
        run_q, run_head, run_end = run_q[keep], run_head[keep], run_end[keep]
        q, node = q[go], node[go]
        if not q.size:
            continue
        tree.load(node)
        visits[q] += 1
        leaf = tree.is_leaf[node]
        if leaf.any():
            _scan_leaves(tree, node[leaf], q[leaf], qs, metric, topk, scanned)
        inner = ~leaf
        if not inner.any():
            continue
        # Expand: every child of every popped inner node, against its query.
        pn, pq = node[inner], q[inner]
        counts = tree.n_edges[pn]
        e = np.repeat(tree.first_edge[pn], counts) + concat_ranges(counts)
        eq = np.repeat(pq, counts)
        b = tree.mindist(e, eq)
        ok = b <= topk.kth[eq] * shrink
        e, eq, b = e[ok], eq[ok], b[ok]
        if not e.size:
            continue
        # One new run per query, sorted by (bound, child order).
        order = np.lexsort((b, eq))
        e, eq, b = e[order], eq[order], b[order]
        base = ent_node.size
        ent_node.extend(tree.edge_child[e])
        ent_bound.extend(b)
        first = np.flatnonzero(np.concatenate(([True], eq[1:] != eq[:-1])))
        run_q = np.concatenate((run_q, eq[first]))
        run_head = np.concatenate((run_head, base + first))
        run_end = np.concatenate((run_end, base + np.append(first[1:], len(eq))))
