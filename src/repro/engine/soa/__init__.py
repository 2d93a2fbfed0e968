"""Struct-of-arrays snapshots: compile a ``trav_*`` index, vectorize the walk.

The object-walk kernel (:mod:`repro.engine.kernel`) pays interpreter costs
per node per batch: a Python ``trav_children`` call, one ``ChildBound``
object per child edge, one predicate call per edge.  For a compiled
snapshot all of that happens once: :func:`compile_snapshot` walks the index
in DFS pre-order and packs the directory into contiguous numpy arrays
(CSR child offsets, per-edge bound rows, concatenated leaf vectors and
oids), and the :mod:`repro.engine.soa.kernel` functions answer whole query
batches by pruning an entire frontier level with a handful of array ops.

Results are **bit-identical** to the object-walk kernel — same float
operations row-wise, same DFS output order, same ``(distance, oid)`` k-NN
total order, same hB-tree de-duplication semantics — which the conformance
suite (``tests/test_soa_conformance.py``) asserts with ``==``.

Snapshots are derived data: any mutation invalidates them
(``invalidate_snapshot``), after which queries fall back to the object
walk until the index is re-compiled.  For the hybrid tree,
``HybridTree.save`` persists the compiled snapshot as a checksummed raw
section of the single-file format and ``HybridTree.open(mmap=True)`` maps
the arrays back zero-copy (:mod:`repro.engine.soa.persist`).
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
