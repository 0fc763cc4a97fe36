"""Categorical products of digraphs, built as explicit digraphs."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from math import prod

from .core import DEFAULT_VERTEX_LIMIT, Digraph, SizeLimitExceeded, make_digraph


@dataclass
class ProductSpec:
    """Categorical product of ``factors`` with coordinatewise arcs."""

    factors: tuple[Digraph, ...]

    @property
    def num_vertices(self) -> int:
        return prod(f.n for f in self.factors)

    def materialize(self) -> Digraph:
        """The product digraph: tuple vertices in lexicographic order, labelled
        by their tuples; one factor is returned as it is."""
        if len(self.factors) == 1:
            return self.factors[0]
        size = self.num_vertices
        if size > DEFAULT_VERTEX_LIMIT:
            raise SizeLimitExceeded("product materialization", size, DEFAULT_VERTEX_LIMIT)
        labels = list(iter_product(*(range(f.n) for f in self.factors)))
        arcs = []
        for combo in iter_product(*(f.arcs for f in self.factors)):
            u = v = 0
            for f, (a, b) in zip(self.factors, combo):
                u = u * f.n + a
                v = v * f.n + b
            arcs.append((u, v))
        names = ",".join(f.name or "?" for f in self.factors)
        return make_digraph(size, arcs, name=f"product({names})", labels=labels)


def categorical_product(factors) -> ProductSpec:
    """Product of >= 1 factors; ``materialize()`` builds it."""
    factors = tuple(factors)
    if not factors:
        raise ValueError("need at least one factor")
    return ProductSpec(factors)
