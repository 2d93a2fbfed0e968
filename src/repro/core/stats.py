"""Structural statistics of a hybrid tree (Tables 1 and 2 evidence).

``compute_stats`` walks the tree once (uncharged accesses) and measures the
quantities the paper argues about: fanout (dimension-independence), node
utilization (the guarantee KDB-trees lack), the degree of overlap introduced
by relaxed splits, the set of dimensions actually used for splitting
(Lemma 1's implicit dimensionality reduction), and the ELS memory overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.nodes import DataNode, IndexNode
from repro.geometry.rect import Rect


@dataclass
class TreeStats:
    """Measured structural properties of one tree instance."""

    count: int = 0
    height: int = 0
    num_data_nodes: int = 0
    num_index_nodes: int = 0
    pages: int = 0
    avg_index_fanout: float = 0.0
    max_index_fanout: int = 0
    avg_data_utilization: float = 0.0
    min_data_utilization: float = 1.0
    kd_internal_count: int = 0
    overlapping_split_count: int = 0
    avg_normalized_overlap: float = 0.0
    split_dims_used: set[int] = field(default_factory=set)
    data_level_overlap_volume: float = 0.0
    els_memory_bytes: int = 0

    @property
    def overlap_fraction(self) -> float:
        """Fraction of kd splits that are overlapping (lsp > rsp)."""
        if self.kd_internal_count == 0:
            return 0.0
        return self.overlapping_split_count / self.kd_internal_count


def compute_stats(tree) -> TreeStats:
    """Measure a :class:`~repro.core.hybridtree.HybridTree` (or any index
    exposing the same node shapes)."""
    stats = TreeStats(count=len(tree), height=tree.height, pages=tree.pages())
    fanouts: list[int] = []
    utils: list[float] = []
    overlaps: list[float] = []
    data_regions: list[Rect] = []

    def walk(node_id: int, region: Rect) -> None:
        node = tree.nm.get(node_id, charge=False)
        if isinstance(node, DataNode):
            stats.num_data_nodes += 1
            utils.append(node.utilization())
            data_regions.append(region)
            return
        assert isinstance(node, IndexNode)
        stats.num_index_nodes += 1
        fanouts.append(node.fanout)
        table = node.table
        overlap = table.lsp - table.rsp
        span = (region.high - region.low)[table.dim]
        stats.kd_internal_count += len(table.dim)
        stats.split_dims_used.update(table.dim.tolist())
        stats.overlapping_split_count += int(np.count_nonzero(overlap > 0))
        overlaps.extend(np.divide(
            overlap, span, out=np.zeros_like(overlap), where=(overlap > 0) & (span > 0)
        ).tolist())
        for child_id, child_region in node.children_with_regions(region):
            walk(child_id, child_region)

    walk(tree.root_id, tree.bounds)
    if fanouts:
        stats.avg_index_fanout = float(np.mean(fanouts))
        stats.max_index_fanout = int(max(fanouts))
    if utils:
        stats.avg_data_utilization = float(np.mean(utils))
        stats.min_data_utilization = float(min(utils))
    if overlaps:
        stats.avg_normalized_overlap = float(np.mean(overlaps))
    stats.data_level_overlap_volume = _pairwise_overlap_volume(data_regions)
    stats.els_memory_bytes = tree.els.memory_bytes
    return stats


def _pairwise_overlap_volume(regions: list[Rect], sample_cap: int = 400) -> float:
    """Total pairwise intersection volume of data-level regions.

    Data-node *splits* are always clean (paper Section 3.6), so this is
    exactly zero until an overlapping *index* split above the data level
    lets regions in the two subtrees overlap; even then it stays orders of
    magnitude below the R-tree family's sibling overlap.  Quadratic, so
    capped at a deterministic sample for very large trees.
    """
    if len(regions) > sample_cap:
        step = len(regions) / sample_cap
        regions = [regions[int(i * step)] for i in range(sample_cap)]
    total = 0.0
    for i, a in enumerate(regions):
        for b in regions[i + 1 :]:
            total += a.overlap_volume(b)
    return total
