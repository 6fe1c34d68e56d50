"""Strict State Graph (SSG) approach to MCOS generation (paper §4.3).

States are nodes of a forest whose edges run from a superset state to
a subset state (**Property 1**: every edge ``(p, c)`` has
``ID_c ⊂ ID_p``).

The State Traversal (ST, Algorithm 1) visits the forest from its roots
(the parentless states) and *stops descending* at a state that cannot
lead to a generator — every descendant is a subset, so whole subtrees
are skipped.  That is the pruning that NAIVE and MFS (which meet
*every* stored state when they enumerate) cannot do.  The paper stops
where a state's intersection with the arriving object set is empty;
here the traversal runs only on a frame with re-entering objects and
stops at a state that holds none of them (below).

The paper's graph is a DAG: a state hangs below every state that
generated it and every later principal state above it.  Here a state
has at most one parent.  By Property 1 any superset chain up to a root
reaches a node whenever the node holds a probed bit, so a second
parent could add visits but never prune one; with one parent a node is
pushed at most once per frame and needs no visit flag.

SSG runs the MFS update step (:mod:`repro.core.mfs`) and differs from
MFS in enumeration only: it overrides ``_generators`` (ST traversal),
``_create`` (forest edges, CNPS) and ``_drop`` (node removal); expiry
buckets and the Result State Set are the shared ones.  See DESIGN.md
§5 for the mapping to the paper's pseudocode, these deviations, and
the ambiguities resolved:

- Traversal and state update are two phases: the traversal collects,
  per intersection value, the *generator* states it met, then the
  shared update step applies the MFS creation/append/marking rules
  over that generator map.  This is behaviourally identical to the
  interleaved Algorithm 1 + CNPS and makes "SSG result == MFS result"
  an exact testable property.
- The traversal probes the frame's re-entering bits ``R``, not its
  object set: the previous frame's group keys stand in for every state
  without an ``R`` bit (:mod:`repro.core.mfs`), so only the states
  holding one are collected.  By Property 1 a node holding an ``R``
  bit hangs only below nodes that hold it too, so pruning on ``R``
  reaches every such node.
- The forest keeps Property 1 only.  The paper's Property 2 (no child
  subsumes a sibling) and the edge moves that keep it (§4.3.4
  "Modifying Existing Edges") add nothing the traversal's exactness
  needs, so ``_add_edge`` appends: a new state hangs below the
  generator the update step passes (for a group without an ``R`` bit,
  the previous frame's group key standing in for its generators, a
  superset all the same), and a new principal state takes every
  intersection state of its frame that is still a root (CNPS, §4.3.5),
  in any order, without the descending-cardinality sort.
- The shared expiry removes a state the frame its newest mark expires,
  not when the traversal next meets it (``pruneState``), hanging its
  children below its parent as they are (or promoting them to roots),
  so the traversal meets only valid nodes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.core.mfs import MFSGenerator
from repro.core.model import State


@dataclass(slots=True, eq=False, repr=False)
class SSGNode(State):
    """A state that is also a forest node."""

    # Children in insertion order, so that the forest's shape and the
    # traversal order, hence ``stats``, do not depend on the nodes'
    # addresses.  A list, not a dict, because the traversal extends its
    # queue with every intersecting node's children.
    children: list[SSGNode] = field(default_factory=list)
    parent: SSGNode | None = None

    # ``children.remove`` and ``in`` compare nodes by identity.
    __eq__ = object.__eq__


class SSGGenerator(MFSGenerator):
    """SSG state maintenance with ST traversal and CNPS connection."""

    state_cls = SSGNode

    def __init__(self, w: int, d: int, admit: Callable[[int], bool] | None = None) -> None:
        # With ``admit`` (SSG_O) an inadmissible object set is never
        # added to the forest — and since admissibility is monotone for
        # >=-only workloads, none of its subsets will ever be generated
        # through it either (subtree never built).
        super().__init__(w, d, admit)
        self.roots: dict[int, SSGNode] = {}  # objset -> parentless node

    def _add_edge(self, p: SSGNode, c: SSGNode) -> None:
        """Hang the parentless ``c ⊂ p`` below ``p``."""
        p.children.append(c)
        c.parent = p
        self.roots.pop(c.objset, None)
        self.stats["edges"] += 1

    def _drop(self, node: SSGNode) -> None:
        """Detach an invalid node, hanging its children below its parent."""
        super()._drop(node)
        self.roots.pop(node.objset, None)
        p = node.parent
        if p is not None:
            p.children.remove(node)
        for c in node.children:
            if p is None:
                c.parent = None
                self.roots[c.objset] = c
            else:
                self._add_edge(p, c)
                self.stats["reparented"] += 1

    def _create(
        self, objset: int, frames: list[int], mark: int, parent: SSGNode | None, below: Iterable[int]
    ) -> SSGNode:
        node = super()._create(objset, frames, mark, parent, below)
        if parent is None:
            # No state lies above a new principal state: a superset of
            # the frame's object set would have generated it.
            self.roots[objset] = node
        else:
            self._add_edge(parent, node)
        # CNPS: a new principal state takes every intersection state of
        # its frame that has no parent yet (§4.3.5); one created this
        # frame hangs below its generator already.
        for inter in below:
            child = self.states.get(inter)
            if child is not None and child.parent is None:
                self._add_edge(node, child)
        return node

    def _generators(self, objs_mask: int, probe: int) -> dict[int, list[SSGNode]]:
        """ST traversal (Algorithm 1) on ``probe``, breadth-first over
        one list that grows while it is read: in a forest every node is
        queued at most once per frame."""
        gens: dict[int, list[SSGNode]] = {}
        queue = list(self.roots.values())
        push = queue.extend
        get_bucket = gens.get
        for node in queue:
            objset = node.objset
            if not objset & probe:
                continue  # descendants are subsets: none holds a probed bit
            inter = objset & objs_mask
            bucket = get_bucket(inter)
            if bucket is None:
                gens[inter] = [node]
            else:
                bucket.append(node)
            if node.children:
                push(node.children)
        self.stats["visits"] += len(queue)
        return gens
