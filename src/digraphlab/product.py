"""Lazily-evaluated categorical products of digraphs.

Tuple vertices are only materialized into an explicit digraph when the
product is small; above the threshold only the adjacency oracle (and the
arc iterator) is available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iter_product
from typing import Iterator, Optional

from .core import Digraph, Hom, SizeLimitExceeded, make_digraph, validate_hom

#: Products with more tuple vertices than this stay implicit.
DEFAULT_MATERIALIZE_THRESHOLD = 200_000


@dataclass
class ProductSpec:
    """Categorical product of ``factors`` with coordinatewise arcs."""

    factors: tuple[Digraph, ...]
    threshold: int = DEFAULT_MATERIALIZE_THRESHOLD
    materialized: Optional[Digraph] = field(default=None, repr=False)

    @property
    def num_vertices(self) -> int:
        size = 1
        for f in self.factors:
            size *= f.n
        return size

    @property
    def num_arcs(self) -> int:
        size = 1
        for f in self.factors:
            size *= len(f.arcs)
        return size

    def index_of(self, tup: tuple[int, ...]) -> int:
        """Lexicographic rank of a tuple vertex (mixed-radix encoding)."""
        idx = 0
        for f, coord in zip(self.factors, tup):
            idx = idx * f.n + coord
        return idx

    def tuple_of(self, idx: int) -> tuple[int, ...]:
        coords = []
        for f in reversed(self.factors):
            idx, c = divmod(idx, f.n)
            coords.append(c)
        return tuple(reversed(coords))

    def has_arc(self, u: tuple[int, ...], v: tuple[int, ...]) -> bool:
        return all(f.has_arc(a, b) for f, a, b in zip(self.factors, u, v))

    def arcs_iter(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        """All tuple arcs: one combination per choice of an arc in each factor."""
        for combo in iter_product(*(f.arcs for f in self.factors)):
            yield tuple(a[0] for a in combo), tuple(a[1] for a in combo)

    def materialize(self) -> Digraph:
        if self.materialized is not None:
            return self.materialized
        size = self.num_vertices
        if size > self.threshold:
            raise SizeLimitExceeded("product materialization", size, self.threshold)
        labels = list(iter_product(*(range(f.n) for f in self.factors)))
        arcs = [(self.index_of(u), self.index_of(v)) for u, v in self.arcs_iter()]
        names = ",".join(f.name or "?" for f in self.factors)
        self.materialized = make_digraph(size, arcs, name=f"product({names})", labels=labels)
        return self.materialized


def categorical_product(
    factors, threshold: int = DEFAULT_MATERIALIZE_THRESHOLD
) -> ProductSpec:
    """Product of >= 1 factors, materialized eagerly when under the threshold."""
    factors = tuple(factors)
    if not factors:
        raise ValueError("need at least one factor")
    spec = ProductSpec(factors, threshold)
    if len(factors) == 1:
        spec.materialized = factors[0]
    elif spec.num_vertices <= threshold:
        spec.materialize()
    return spec


@dataclass(frozen=True)
class ProductHom:
    """Hom into an implicit product, stored as one hom per factor."""

    factor_homs: tuple[Hom, ...]

    def tuple_map(self, u: int) -> tuple[int, ...]:
        return tuple(h.map[u] for h in self.factor_homs)

    def validate(self, g: Digraph, spec: ProductSpec) -> bool:
        return all(
            validate_hom(h, g, f) for h, f in zip(self.factor_homs, spec.factors)
        ) and all(
            spec.has_arc(self.tuple_map(u), self.tuple_map(v)) for u, v in g.arcs
        )
