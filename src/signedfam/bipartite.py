"""Bipartite comparison graphs, biregularity checks, and the averaging bound.

The comparison graphs connect two vector classes by edges at one exact
scalar product, read one products row per A member.  For any biregular
bipartite graph and any independent set I, the averaging bound states
|I & B| + alpha * |I & A| <= alpha * |A| for every rational alpha >=
|B| / |A|; it is checked here in exact arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .constructions import xy_families
from .vectors import Profile, VectorFamily, enumerate_all, products


class IrregularityError(ValueError):
    """A vertex whose degree differs from its side's common degree."""

    def __init__(self, side: str, vertex: int, degree: int, expected: int):
        self.side = side
        self.vertex = vertex
        self.degree = degree
        self.expected = expected
        super().__init__(
            f"vertex {vertex} on side {side} has degree {degree}, expected {expected}"
        )


@dataclass(frozen=True)
class BipartiteGraph:
    """Sides indexed 0..a_size-1 and 0..b_size-1; edges as (a, b) pairs."""

    a_size: int
    b_size: int
    edges: frozenset[tuple[int, int]]
    a_family: Optional[VectorFamily] = None
    b_family: Optional[VectorFamily] = None

    def __post_init__(self) -> None:
        if self.a_size < 0 or self.b_size < 0:
            raise ValueError("side sizes must be nonnegative")
        for a, b in self.edges:
            if not (0 <= a < self.a_size and 0 <= b < self.b_size):
                raise ValueError(f"edge ({a}, {b}) out of range")

    def degrees(self) -> tuple[list[int], list[int]]:
        deg_a = [0] * self.a_size
        deg_b = [0] * self.b_size
        for a, b in self.edges:
            deg_a[a] += 1
            deg_b[b] += 1
        return deg_a, deg_b


def _product_edges(
    a_fam: VectorFamily, b_fam: VectorFamily, product: int
) -> frozenset[tuple[int, int]]:
    """The (a, b) index pairs whose members have the given product, one products row per a."""
    return frozenset(
        (ia, ib)
        for ia, pair in enumerate(a_fam.masks)
        for ib, prod in enumerate(products(pair, b_fam.masks))
        if prod == product
    )


def build_g_tm(profile: Profile, t: int, m: int) -> BipartiteGraph:
    """Comparison graph between the X and Y window classes at product -2l.

    Both sides must be nonempty.
    """
    x_fam, y_fam = xy_families(profile, t, m)
    if not x_fam or not y_fam:
        raise ValueError(
            f"degenerate window classes at t={t}, m={m}: "
            f"|X|={len(x_fam)}, |Y|={len(y_fam)}"
        )
    edges = _product_edges(x_fam, y_fam, -2 * profile.l)
    return BipartiteGraph(len(x_fam), len(y_fam), edges, x_fam, y_fam)


def build_g_prime(j: int, jprime: int, k: int, l: int) -> BipartiteGraph:
    """Comparison graph for the suffix-marker class, at product -2l + 2j - 1.

    Side A is the (jprime-1, k-j+1, l-j) class, side B the
    (jprime-1, k-j, l-j+1) class.  Requires 2 <= j <= l and the width
    condition jprime - 1 >= 2(k - j + 1).
    """
    if not 2 <= j <= l:
        raise ValueError(f"requires 2 <= j <= l, got j={j}, l={l}")
    if jprime - 1 < 2 * (k - j + 1):
        raise ValueError(
            f"width condition fails: jprime-1 = {jprime - 1} < 2(k-j+1) = {2 * (k - j + 1)}"
        )
    a_fam = enumerate_all(Profile(jprime - 1, k - j + 1, l - j))
    b_fam = enumerate_all(Profile(jprime - 1, k - j, l - j + 1))
    edges = _product_edges(a_fam, b_fam, -2 * l + 2 * j - 1)
    return BipartiteGraph(len(a_fam), len(b_fam), edges, a_fam, b_fam)


def check_biregular(g: BipartiteGraph) -> tuple[int, int]:
    """Common degrees of the two sides; raises on the first irregular vertex.

    Also asserts the handshake identity |A| * deg_A = |B| * deg_B = |E|.
    """
    if g.a_size == 0 or g.b_size == 0:
        raise ValueError("biregularity needs both sides nonempty")
    deg_a, deg_b = g.degrees()
    for i, d in enumerate(deg_a):
        if d != deg_a[0]:
            raise IrregularityError("A", i, d, deg_a[0])
    for i, d in enumerate(deg_b):
        if d != deg_b[0]:
            raise IrregularityError("B", i, d, deg_b[0])
    assert g.a_size * deg_a[0] == len(g.edges)
    assert g.b_size * deg_b[0] == len(g.edges)
    return deg_a[0], deg_b[0]


def lemma3_check(
    g: BipartiteGraph,
    i_a: set[int],
    i_b: set[int],
    alpha: Fraction,
) -> bool:
    """Exact averaging bound |I & B| + alpha |I & A| <= alpha |A|.

    Requires a biregular graph with nonzero degrees, an independent set
    I = i_a | i_b, and alpha >= |B| / |A|.
    """
    deg_a, deg_b = check_biregular(g)
    if deg_a == 0 or deg_b == 0:
        raise ValueError("averaging bound needs nonzero degrees")
    for a in i_a:
        if not 0 <= a < g.a_size:
            raise ValueError(f"A index {a} out of range")
    for b in i_b:
        if not 0 <= b < g.b_size:
            raise ValueError(f"B index {b} out of range")
    for a, b in g.edges:
        if a in i_a and b in i_b:
            raise ValueError(f"set not independent: edge ({a}, {b}) inside it")
    if not isinstance(alpha, Fraction):
        alpha = Fraction(alpha)
    if alpha < Fraction(g.b_size, g.a_size):
        raise ValueError(
            f"alpha {alpha} below side ratio {Fraction(g.b_size, g.a_size)}"
        )
    return len(i_b) + alpha * len(i_a) <= alpha * g.a_size


def random_biregular(
    a_size: int,
    b_size: int,
    deg_a: int,
    deg_b: int,
    seed: int,
) -> BipartiteGraph:
    """Random simple biregular bipartite graph, drawn with one shuffle.

    When deg_a == b_size the complete graph K_{a,b} is the only simple
    biregular graph, and it is returned without drawing.  Otherwise one
    shuffle pairs the A stubs (deg_a per vertex) with the B stubs (deg_b
    per vertex), and a walk over the A stubs in order swaps each B stub b
    that would repeat the edge (a, b) with a random later one that gives
    a new edge.  When none does, an exchange turns (a, b) and a placed
    edge (a2, b2), drawn from the sorted candidates, into (a2, b) and
    (a, b2), which keeps every degree.  One exists: a has at most
    deg_a - 1 < b_size neighbours, so some b2 is not one; every stub left
    is a neighbour of a, so b2 has all deg_b edges; b has a stub left, so
    at most deg_b - 1 edges, and some neighbour a2 of b2 is not adjacent
    to b.  The draw is not uniform over pairings; the averaging bound
    holds for every biregular graph.
    """
    if a_size < 1 or b_size < 1 or deg_a < 1 or deg_b < 1:
        raise ValueError("sizes and degrees must be positive")
    if a_size * deg_a != b_size * deg_b:
        raise ValueError(
            f"handshake fails: {a_size} * {deg_a} != {b_size} * {deg_b}"
        )
    if deg_a > b_size or deg_b > a_size:
        raise ValueError("degree exceeds the opposite side; no simple graph exists")
    if deg_a == b_size:
        edges = frozenset((a, b) for a in range(a_size) for b in range(b_size))
        return BipartiteGraph(a_size, b_size, edges)
    rng = random.Random(seed)
    a_stubs = [a for a in range(a_size) for _ in range(deg_a)]
    b_stubs = [b for b in range(b_size) for _ in range(deg_b)]
    rng.shuffle(b_stubs)
    edges = set()
    for i, a in enumerate(a_stubs):
        b = b_stubs[i]
        if (a, b) in edges:
            later = [j for j in range(i + 1, len(b_stubs)) if (a, b_stubs[j]) not in edges]
            if later:
                j = rng.choice(later)
                b_stubs[i], b_stubs[j] = b_stubs[j], b
            else:
                a2, b2 = rng.choice(sorted(
                    (a2, b2) for a2, b2 in edges if (a, b2) not in edges and (a2, b) not in edges
                ))
                edges.remove((a2, b2))
                edges.add((a2, b))
                b_stubs[i] = b2
        edges.add((a, b_stubs[i]))
    return BipartiteGraph(a_size, b_size, frozenset(edges))


def random_independent_set(
    g: BipartiteGraph, seed: int
) -> tuple[set[int], set[int]]:
    """Random greedy maximal independent set over both sides."""
    rng = random.Random(seed)
    nbrs_a: dict[int, set[int]] = {a: set() for a in range(g.a_size)}
    nbrs_b: dict[int, set[int]] = {b: set() for b in range(g.b_size)}
    for a, b in g.edges:
        nbrs_a[a].add(b)
        nbrs_b[b].add(a)
    order = [("A", a) for a in range(g.a_size)] + [("B", b) for b in range(g.b_size)]
    rng.shuffle(order)
    i_a: set[int] = set()
    i_b: set[int] = set()
    for side, v in order:
        if side == "A":
            if not nbrs_a[v] & i_b:
                i_a.add(v)
        else:
            if not nbrs_b[v] & i_a:
                i_b.add(v)
    return i_a, i_b
