"""Sub-CSR assembly: the reachable subspace as a first-class graph backend.

The sparse explorer produces per-command **local successor columns** —
length-``m`` ``int64`` arrays over the compact ids of the reachable
subspace.  Those columns have exactly the shape of dense successor tables
over an ``m``-state space, so the entire dense connectivity tier —
:class:`repro.semantics.graph_backend.GraphBackend`, the
:mod:`repro.util.csr` kernels, and the canonical SCC condensation of
:mod:`repro.semantics.scc` — runs on the subspace **unchanged**.  This
module is the assembly point: it deduplicates the union edge set, drops
self-loops, and hands back a backend whose node ids are local ids.

Because ``global_ids`` is sorted ascending, local ids preserve global
index order; the canonical (smallest-member) tie-breaks of the SCC
emission order therefore agree with the dense tier wherever both can run,
which is what the differential suite pins.
"""

from __future__ import annotations

from repro.semantics.graph_backend import GraphBackend
from repro.semantics.sparse.explorer import ReachableSubspace

__all__ = ["assemble_backend"]


def assemble_backend(sub: ReachableSubspace) -> GraphBackend:
    """Union CSR backend of the subspace's transition graph on local ids.

    One successor column per non-skip command; the backend lazily
    deduplicates the union edge set and builds forward + reverse CSR with
    dtype-minimized node ids, exactly as the dense tier does for full
    spaces.  Prefer :meth:`ReachableSubspace.graph`, which caches the
    assembly per subspace.
    """
    tables = [sub.succ_local(cmd) for cmd in sub.program.commands if not cmd.is_skip()]
    return GraphBackend(sub.size, tables)
