"""Strict State Graph (SSG) approach to MCOS generation (paper §4.3).

States are nodes of a DAG whose edges run from generating state to
generated state, with:

- **Property 1**: every edge ``(p, c)`` has ``ID_c ⊂ ID_p``;
- **Property 2**: no child of a node subsumes a sibling.

The State Traversal (ST, Algorithm 1) visits the graph from its roots
(principal states, in arrival order) for every arriving frame and
*stops descending* whenever a state's intersection with the arriving
object set is empty — every descendant's intersection is a subset, so
whole subtrees are skipped.  That is the pruning that NAIVE and MFS
(which intersect *every* stored state per frame) cannot do.

SSG runs the MFS update step (:mod:`repro.core.mfs`) and differs from
MFS in enumeration only: it overrides ``_generators`` (ST traversal),
``_create`` (graph edges, CNPS) and ``_drop`` (node removal); expiry
buckets and the Result State Set are the shared ones.  See DESIGN.md
§5 for the mapping to the paper's pseudocode and the ambiguities
resolved:

- Traversal and state update are two phases: the traversal collects,
  per intersection value, the set of *generator* states it met
  (exactly the states whose intersection with the frame is non-empty —
  these are provably all states with non-empty intersection), then the
  shared update step applies the MFS creation/append/marking rules
  over that generator map.  This is behaviourally identical to the
  interleaved Algorithm 1 + CNPS and makes "SSG result == MFS result"
  an exact testable property.
- ``_add_edge`` is an idempotent Property-2-preserving insertion: a
  new child subsumed by an existing sibling is placed below that
  sibling (recursively); existing siblings subsumed by the new child
  are re-parented below it (§4.3.4 "Modifying Existing Edges").
  Applied to the new principal state over the intersection values, it
  realises the CNPS selection (§4.3.5) in any order, without the
  explicit descending-cardinality sort.
- The shared expiry removes a state the frame its newest mark expires,
  not when the traversal next meets it (``pruneState``), re-attaching
  its children to its parents (or promoting them to roots), so the
  traversal meets only valid nodes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Iterable

from repro.core.mfs import MFSGenerator
from repro.core.model import State


@dataclass(slots=True, eq=False, repr=False)
class SSGNode(State):
    """A state that is also a graph node: adjacency and visit flag."""

    # Adjacency as insertion-ordered dicts (used as sets), so that the
    # graph's shape and the traversal order, hence ``stats``, do not
    # depend on the nodes' addresses.
    children: dict[SSGNode, None] = field(default_factory=dict)
    parents: dict[SSGNode, None] = field(default_factory=dict)
    flag: int = -1  # fid of the last frame that visited this node
    seq: int = 0  # creation order; roots are traversed in order

    # Nodes live in each other's adjacency dicts: hash by identity.
    __eq__ = object.__eq__
    __hash__ = object.__hash__


class SSGGenerator(MFSGenerator):
    """SSG state maintenance with ST traversal and CNPS connection."""

    state_cls = SSGNode

    def __init__(self, w: int, d: int, admit: Callable[[int], bool] | None = None) -> None:
        # With ``admit`` (SSG_O) an inadmissible object set is never
        # added to the graph — and since admissibility is monotone for
        # >=-only workloads, none of its subsets will ever be generated
        # through it either (subtree never built).
        super().__init__(w, d, admit)
        self.roots: dict[int, SSGNode] = {}
        self._seq = count()

    def _add_edge(self, p: SSGNode, c: SSGNode) -> None:
        """Insert edge ``p -> c`` preserving Properties 1 and 2."""
        if p is c:
            return
        for c2 in list(p.children):
            if c2 is c:
                return
            if c.objset & c2.objset == c.objset:
                # c subsumed by an existing sibling: place it deeper.
                self._add_edge(c2, c)
                return
        for c2 in list(p.children):
            if c2.objset & c.objset == c2.objset:
                # existing sibling subsumed by c: re-parent (§4.3.4).
                del p.children[c2]
                del c2.parents[p]
                self._add_edge(c, c2)
        p.children[c] = None
        c.parents[p] = None
        self.roots.pop(c.objset, None)

    def _drop(self, node: SSGNode) -> None:
        """Detach an invalid node, re-wiring its children."""
        super()._drop(node)
        self.roots.pop(node.objset, None)
        for p in node.parents:
            del p.children[node]
        for c in node.children:
            del c.parents[node]
        for c in node.children:
            for p in node.parents:
                self._add_edge(p, c)
            if not c.parents:
                self.roots[c.objset] = c

    def _create(
        self, objset: int, frames: list[int], mark: int, parent: SSGNode | None, below: Iterable[int]
    ) -> SSGNode:
        node = super()._create(objset, frames, mark, parent, below)
        node.seq = next(self._seq)
        self.roots[objset] = node  # until an edge gives it a parent
        if parent is not None:
            # One superset parent suffices: the node is visited
            # whenever its own intersection is non-empty because
            # every ancestor is a superset (Property 1), so the
            # remaining generator edges of §4.3.3 would only add
            # redundant traversal paths, never extra pruning.
            self._add_edge(parent, node)
        # CNPS: connect a new principal state above every intersection
        # state of its frame (§4.3.5); an existing one got these edges
        # the frame it was created.  No state lies above a new one: a
        # superset of the frame's object set would have generated it.
        for inter in below:
            child = self.states.get(inter)
            if child is not None:
                self._add_edge(node, child)
        return node

    def _generators(self, fid: int, lo: int, objs_mask: int) -> dict[int, list[SSGNode]]:
        """ST traversal (Algorithm 1), iterative for Python-level speed."""
        gens: dict[int, list[SSGNode]] = {}
        stack = sorted(self.roots.values(), key=lambda n: -n.seq)
        visits = 0
        get_bucket = gens.get
        while stack:
            node = stack.pop()
            if node.flag == fid:
                continue
            node.flag = fid
            visits += 1
            inter = node.objset & objs_mask
            if not inter:
                continue  # descendants' intersections are subsets: skip
            if node.frames[0] < lo:
                node.expire(lo)
            bucket = get_bucket(inter)
            if bucket is None:
                gens[inter] = [node]
            else:
                bucket.append(node)
            for c in node.children:  # push only unvisited children
                if c.flag != fid:
                    stack.append(c)
        self.stats["visits"] += visits
        return gens

    def check_invariants(self) -> None:
        """Filing and graph invariants, asserted by tests after every frame."""
        super().check_invariants()
        for node in self.states.values():
            assert self.states.get(node.objset) is node
            for c in node.children:
                assert c.objset & node.objset == c.objset and c.objset != node.objset, (
                    "Property 1 violated"
                )
                assert node in c.parents
            kids = list(node.children)
            for i, a in enumerate(kids):
                for b in kids[i + 1 :]:
                    ab = a.objset & b.objset
                    assert ab != a.objset and ab != b.objset, "Property 2 violated"
            if not node.parents:
                assert node.objset in self.roots, "orphan not registered as root"
        for mask, node in self.roots.items():
            assert self.states.get(mask) is node and not node.parents
