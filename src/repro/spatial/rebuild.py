"""When a batch rebuilds a spatial index instead of entering it one by one.

Both index families take batches through ``insert_many``: an R-tree
re-packs by Sort-Tile-Recursive, an interval tree re-links its sorted nodes.
A rebuild touches every stored record once, about ``n + k`` steps for ``n``
stored and ``k`` new records; ``k`` inserts cost about ``k * log2(n + k)``
node visits, each a heavier Python step than a rebuild's.  So a batch
rebuilds once its inserts would visit as many nodes as the tree holds.

The rule is a cost model.  One tree size was measured on each side of it
(n = 2 000 random boxes / intervals, R-tree M = 16, best of 7, a 2-core
x86 host; the rule switches at k = 181): k = 100 inserts took 3.7 ms in the
R-tree against 7.8 ms for a re-pack; at k = 200 the two were within noise
of each other in both trees (R-tree 9.1-9.6 against 8.6-9.3 ms, interval
tree 1.9-2.2 against 2.1-2.6 ms); at k = 400 inserts took 27 against
10 ms (interval tree 4.4-7.2 against 2.7-3.1 ms).  Larger trees follow
from the model only: a 100k-record tree re-packs from about 6 000 records.
"""

from __future__ import annotations

import math

#: Batches of at most this many records always take one insert each, so a
#: commit's own few extents never rebuild an index, however small it is.
#: Only the interval tree needs it: the R-tree already inserts any batch
#: that fits one leaf (``M`` >= 4).
SMALL_BATCH = 3


def rebuild_pays(stored: int, batch: int) -> bool:
    """True when a tree holding *stored* records should be rebuilt with a
    *batch* of new ones rather than take them insert by insert."""
    return batch > SMALL_BATCH and batch * math.log2(stored + batch) >= stored
