"""FX-like graph IR.

A :class:`Graph` is an ordered list of SSA nodes; each node names an
operator from :mod:`repro.compiler.ops`, its input nodes, attributes,
and the inferred output :class:`~repro.runtime.tensor.TensorMeta`.
The ML-model compiler "applies several transformations and model-level
optimizations to the PyTorch graph represented as FX IR" (Section 5);
our passes do the same over this IR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.runtime.tensor import TensorMeta


@dataclass
class Node:
    """One SSA operation in the graph."""

    name: str
    op: str
    inputs: List[str] = field(default_factory=list)
    attrs: Dict = field(default_factory=dict)
    meta: Optional[TensorMeta] = None

    def __repr__(self) -> str:
        shape = self.meta.shape if self.meta else "?"
        return (f"%{self.name} = {self.op}({', '.join(self.inputs)}) "
                f"-> {shape}")


class Graph:
    """An ordered operator graph with named outputs."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._order: List[str] = []
        self.outputs: List[str] = []

    # -- construction ----------------------------------------------------
    def add_node(self, node: Node) -> Node:
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        for inp in node.inputs:
            if inp not in self._nodes:
                raise ValueError(
                    f"node {node.name!r} references undefined input {inp!r}")
        self._nodes[node.name] = node
        self._order.append(node.name)
        return node

    def insert_before(self, anchor: str, node: Node) -> Node:
        """Add ``node`` immediately before ``anchor`` in execution order."""
        if anchor not in self._nodes:
            raise ValueError(
                f"cannot insert {node.name!r} before unknown node {anchor!r}")
        self.add_node(node)
        self._order.pop()
        self._order.insert(self._order.index(anchor), node.name)
        return node

    def mark_output(self, name: str) -> None:
        if name not in self._nodes:
            raise ValueError(f"unknown node {name!r}")
        if name not in self.outputs:
            self.outputs.append(name)

    # -- access ------------------------------------------------------------
    def node(self, name: str) -> Node:
        return self._nodes[name]

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Node]:
        for name in self._order:
            yield self._nodes[name]

    def nodes_by_op(self, op: str) -> List[Node]:
        return [n for n in self if n.op == op]

    def users(self, name: str) -> List[Node]:
        """Nodes that consume ``name``."""
        return [n for n in self if name in n.inputs]

    def consumers(self) -> Dict[str, List[Node]]:
        """``users(name)`` of every node at once, built in one pass.

        Each list is in execution order and names a user once, however
        many of its operands read ``name``.  The map is a snapshot: a
        pass that rewires edges must not read entries those edits touch.
        """
        result: Dict[str, List[Node]] = {name: [] for name in self._order}
        for node in self:
            for inp in dict.fromkeys(node.inputs):
                result[inp].append(node)
        return result

    def last_uses(self) -> Dict[int, List[str]]:
        """Tensor names bucketed by the position of their last reader.

        A tensor's position is the execution-order index of the last
        node that reads it; graph outputs are read by the caller after
        the last node, at ``len(self)``.  A tensor that no node reads
        and that is not an output is in no bucket.  Tensor placement
        frees SRAM with this map and the executor frees host values.
        """
        last: Dict[str, int] = {}
        for idx, node in enumerate(self):
            for inp in node.inputs:
                last[inp] = idx
        for out in self.outputs:
            last[out] = len(self._order)
        buckets: Dict[int, List[str]] = {}
        for name, idx in last.items():
            buckets.setdefault(idx, []).append(name)
        return buckets

    # -- mutation (used by passes) ------------------------------------------
    def replace_uses(self, old: str, new: str) -> None:
        """Rewrite every use of ``old`` to ``new``."""
        for node in self:
            node.inputs = [new if i == old else i for i in node.inputs]
        self.outputs = [new if o == old else o for o in self.outputs]

    def remove_node(self, name: str) -> None:
        if self.users(name):
            raise ValueError(f"cannot remove {name!r}: it still has users")
        if name in self.outputs:
            raise ValueError(f"cannot remove graph output {name!r}")
        del self._nodes[name]
        self._order.remove(name)

    def prune_dead(self) -> int:
        """Remove nodes unreachable from the outputs; returns the count."""
        live = set(self.outputs)
        for name in reversed(self._order):
            if name in live:
                live.update(self._nodes[name].inputs)
        dead = [n for n in self._order if n not in live]
        for name in dead:
            del self._nodes[name]
        self._order = [n for n in self._order if n in live]
        return len(dead)

    def copy(self, name: Optional[str] = None) -> "Graph":
        """Structural copy: independent nodes/order/outputs.

        Node ``attrs`` dicts and ``inputs`` lists are copied so passes
        mutating the clone (fusion, placement) leave the original
        untouched; bound constant arrays inside ``attrs`` and the frozen
        :class:`TensorMeta` objects are shared, not duplicated.
        """
        clone = Graph(name or self.name)
        for node in self:
            clone._nodes[node.name] = Node(
                name=node.name, op=node.op, inputs=list(node.inputs),
                attrs=dict(node.attrs), meta=node.meta)
            clone._order.append(node.name)
        clone.outputs = list(self.outputs)
        return clone

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation.

        * every node's inputs are defined *earlier* in execution order;
        * every node (except sources) has inferred output metadata that
          matches a fresh shape-inference pass;
        * every graph output exists.
        """
        from repro.compiler.ops import infer_meta
        seen = set()
        for node in self:
            for inp in node.inputs:
                if inp not in seen:
                    raise ValueError(
                        f"node {node.name!r} uses {inp!r} before it is "
                        "defined in execution order")
            if node.meta is None:
                raise ValueError(f"node {node.name!r} has no metadata")
            fresh = infer_meta(self, node)
            if fresh.shape != node.meta.shape:
                raise ValueError(
                    f"node {node.name!r} metadata is stale: stored "
                    f"{node.meta.shape}, inferred {fresh.shape}")
            seen.add(node.name)
        for out in self.outputs:
            if out not in self._nodes:
                raise ValueError(f"graph output {out!r} does not exist")

    def __repr__(self) -> str:
        lines = [f"Graph {self.name!r}:"]
        lines.extend(f"  {node!r}" for node in self)
        lines.append(f"  outputs: {self.outputs}")
        return "\n".join(lines)


class GraphBuilder:
    """Convenience builder with automatic naming and shape inference."""

    def __init__(self, name: str = "graph") -> None:
        self.graph = Graph(name)
        self._counter = 0

    def _fresh(self, op: str) -> str:
        self._counter += 1
        return f"{op}_{self._counter}"

    def add(self, op: str, inputs: Sequence[str] = (),
            name: Optional[str] = None, **attrs) -> Node:
        """Append an operator node, inferring its output metadata."""
        from repro.compiler.ops import infer_meta  # late: avoids a cycle
        node = Node(name=name or self._fresh(op), op=op,
                    inputs=list(inputs), attrs=dict(attrs))
        node.meta = infer_meta(self.graph, node)
        return self.graph.add_node(node)

    def input(self, shape, dtype="fp32", name: Optional[str] = None,
              **attrs) -> Node:
        return self.add("input", (), name=name, shape=tuple(shape),
                        dtype=dtype, **attrs)

    def weight(self, shape, dtype="fp32", name: Optional[str] = None,
               **attrs) -> Node:
        return self.add("weight", (), name=name, shape=tuple(shape),
                        dtype=dtype, **attrs)

    def output(self, *names: str) -> Graph:
        for name in names:
            self.graph.mark_output(name)
        return self.graph
