"""Struct-of-arrays snapshots: compile a ``trav_*`` index, vectorize the walk.

The object-walk kernel (:mod:`repro.engine.kernel`) pays interpreter costs
per node per batch: a Python ``trav_children`` call and one bound-block
mask per visit, recursing one child at a time.  For a compiled
snapshot all of that happens once: :func:`compile_snapshot` walks the index
in DFS pre-order and packs the directory into contiguous numpy arrays
(CSR child offsets, per-edge bound rows, concatenated leaf vectors and
oids), and the :mod:`repro.engine.soa.kernel` functions answer whole query
batches by pruning an entire frontier level with a handful of array ops.

The snapshot has one form, per-edge boxes (``rect``), so only the
box-bounded trees compile: the hybrid, R, X and kd-B trees.  Every snapshot
batch runs one traversal, the level frontier — for range and distance
queries, and for exact k-NN (a beam probe for an upper radius, then one
distance frontier).  ``dispatch`` sends everything else to the object
kernel, which answers it with the same results and bills: batches on the
hB-, SS-, SR- and M-trees, k-NN batches of one, approximate k-NN
(``approximation_factor > 0``) and k-NN under a metric without
``bound_below_distance``.

Results are **bit-identical** to the object-walk kernel — same float
operations row-wise, same DFS output order, same ``(distance, oid)`` k-NN
total order, same page bill — which the conformance suite
(``tests/test_soa_conformance.py``) asserts with ``==``.

Snapshots are derived data.  A hybrid tree keeps its snapshot through
writes: an insert or delete marks it stale, and the next batch that runs
on it refreshes it (a batch of one, or one the object kernel answers,
leaves it stale), re-deriving only the rows the writes changed
(:mod:`repro.engine.soa.refresh`).  The R, X and kd-B trees drop theirs on
every mutation and fall back to the object walk until re-compiled, and
``invalidate_snapshot`` is that opt-out for any compilable index.  For the
hybrid tree, ``HybridTree.save`` persists the compiled snapshot as a
checksummed raw section of the single-file format and
``HybridTree.open(mmap=True)`` maps the arrays back zero-copy
(:mod:`repro.engine.soa.persist`).
"""

from repro.engine.soa.kernel import (
    soa_distance_range_many,
    soa_knn_many,
    soa_range_search_many,
)
from repro.engine.soa.persist import (
    SNAPSHOT_SECTION_VERSION,
    deserialize_snapshot,
    serialize_snapshot,
)
from repro.engine.soa.snapshot import SOASnapshot, active_snapshot, compile_snapshot

__all__ = [
    "SNAPSHOT_SECTION_VERSION",
    "SOASnapshot",
    "active_snapshot",
    "compile_snapshot",
    "deserialize_snapshot",
    "serialize_snapshot",
    "soa_distance_range_many",
    "soa_knn_many",
    "soa_range_search_many",
]
