"""Exact maximum-independent-set solving over conflict graphs of vector families.

_row_builder is the one conflict-graph builder, for every spec, every
family and any member order: set up once per family, it computes a
vector's row on demand, counting v.w for all members w at once in a
bit-sliced counter, O(k + l) big-integer operations per row.
_adjacency computes every row, for build_conflict_graph and the
suites.  solve_extremal computes rows only as it reads them, on a
class's mask pairs, in shift_order's order when pruning: row 0 decides
whether the class has edges (every vertex has the same degree), the
seed's rows check the seed, and a pruned solve's closure graph asks
only for the rows its covers leave undecided, those of its live
vertices on every class measured.  No solve builds a SignedVector.
One search engine, _bnb, called directly, returns (best mask, nodes,
finished) and stops at an absolute deadline, which it reads before
every node; _result maps its mask to class indices, a witness and a
status.  It is a loop over an explicit stack of (pool, size, mask)
nodes that takes cheap reductions, bounds each node by a greedy clique
cover of its pool, whose number of cliques bounds any independent set,
and branches on a vertex of maximum degree, taking it before it
excludes it; its last reduction pass finds the densest vertices.
mis_exact runs it on any graph; the unpruned solve on a class's
conflict graph; the shift-pruned solve (_solve_shifted) on
shifting.closure_graph's lift of that graph, whose maximum independent
sets are the largest shift-closed families.
mis_bruteforce is the exhaustive oracle for graphs up to 25 vertices: it
lists every maximal independent set (Bron-Kerbosch with a pivot, on the
same adjacency masks) and shares no code with _bnb.
target_spec defines the two extremal targets: "g" (largest family
avoiding the minimum product -2l) and "m" (largest family with no
negative product).  solve_extremal solves them, shift-pruned by
default, which keeps the optimum (shifting.compress says why).  Without
pruning it runs _bnb with orbital branching under the coordinate
permutations, which keep every scalar product; _bnb's docstring gives
the argument.  The search is deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from .constructions import best_split_family, ekr_family, inductive_extend
# precedes and scalar_product are not used here; with verify_family they
# are re-exported on solver, where perfbench's tracer reads them
from .shifting import closure_graph, precedes, shift_order
from .vectors import (
    ForbiddenSpec,
    Profile,
    VectorFamily,
    bits,
    enumerate_all,
    scalar_product,
    verify_family,
)

DEFAULT_VERTEX_CAP = 5000
BRUTEFORCE_VERTEX_CAP = 25

STATUS_EXACT = "exact"
STATUS_TIMEOUT = "lower_bound_timeout"


class VertexCapExceeded(ValueError):
    """Raised when a requested conflict graph would exceed the vertex cap."""


class ConflictGraph:
    """Vertices in canonical family order; adjacency as per-vertex bit masks.

    Every mask is checked to stay in range and to avoid its own vertex,
    and a family must have one member per vertex.  A graph given without
    a family is outside input, and its symmetry is checked too, in O(E);
    one given with its family is _adjacency's output, symmetric by
    construction and checked against a pairwise scan by the
    solver-oracle suite.
    """

    __slots__ = ("family", "adj")

    def __init__(self, adj: Sequence[int], family: Optional[VectorFamily] = None):
        self.adj = tuple(adj)
        self.family = family
        if family is not None and len(family) != len(self.adj):
            raise ValueError(f"family of {len(family)} members for {len(self.adj)} vertices")
        for v, mask in enumerate(self.adj):
            if mask >> len(self.adj):
                raise ValueError(f"adjacency mask of vertex {v} out of range")
            if mask & (1 << v):
                raise ValueError(f"vertex {v} adjacent to itself")
        if family is not None:
            return
        for v, mask in enumerate(self.adj):
            for low in bits(mask):
                u = low.bit_length() - 1
                if not self.adj[u] & (1 << v):
                    raise ValueError(f"asymmetric adjacency between {v} and {u}")

    @property
    def n_vertices(self) -> int:
        return len(self.adj)


def build_conflict_graph(profile: Profile, spec: ForbiddenSpec) -> ConflictGraph:
    """Conflict graph of the full vector class under a forbidden-product spec.

    A class above DEFAULT_VERTEX_CAP vectors raises VertexCapExceeded.
    """
    family = _capped_class(profile, DEFAULT_VERTEX_CAP)
    return ConflictGraph(_adjacency(family.masks, profile, spec), family)


def _capped_class(profile: Profile, vertex_cap: int) -> VectorFamily:
    """The whole class of profile, refused when it has more than vertex_cap vectors."""
    size = profile.family_size()
    if size > vertex_cap:
        raise VertexCapExceeded(
            f"class of profile (n={profile.n}, k={profile.k}, l={profile.l}) "
            f"has {size} vectors, above the cap of {vertex_cap}"
        )
    return enumerate_all(profile)


def _adjacency(
    pairs: Sequence[tuple[int, int]], profile: Profile, spec: ForbiddenSpec
) -> list[int]:
    """Every conflict row of vectors of profile, given as (pos, neg) pairs in any order."""
    return list(map(_row_builder(pairs, profile, spec), range(len(pairs))))


def _row_builder(
    pairs: Sequence[tuple[int, int]], profile: Profile, spec: ForbiddenSpec
) -> Callable[[int], int]:
    """row(a): the conflict mask of pairs[a] among vectors of profile given as pairs, bit-sliced.

    plus[i], minus[i] and zero[i] are the members with +1, -1 and 0 at
    coordinate i, set up once.  For a vector v, each of the k + l
    coordinates i of its support adds 1 + v_i w_i for every member w at
    once: zero[i] at weight 1 and the members agreeing with v at i at
    weight 2, into a counter kept as one bit mask per binary digit.  The
    counter then reads v.w + k + l for every w, and v's neighbours are
    the members whose count is a forbidden product, v itself excepted.
    Products are symmetric, so the adjacency is too.  A row costs
    O(k + l) big-integer operations and is computed anew on each call.
    """
    size = profile.k + profile.l
    full = (1 << len(pairs)) - 1
    plus, minus = _sign_masks(pairs, profile.n)
    zero = [full & ~(pos | neg) for pos, neg in zip(plus, minus)]
    forbidden = [c for c in range(2 * size + 1) if spec.forbids(c - size)]
    width = (2 * size).bit_length()

    def row(a: int) -> int:
        pos, neg = pairs[a]
        digits = [0] * width
        for low in bits(pos | neg):
            i = low.bit_length() - 1
            # the carry out of digit 0 lies in zero[i], so it and the
            # agreeing members are disjoint and enter digit 1 as one mask
            carry = (plus[i] if pos & low else minus[i]) | digits[0] & zero[i]
            digits[0] ^= zero[i]
            for j in range(1, width):
                digits[j], carry = digits[j] ^ carry, digits[j] & carry
        mask = 0
        for count in forbidden:
            eq = full
            for j, digit in enumerate(digits):
                eq &= digit if count >> j & 1 else ~digit
            mask |= eq
        return mask & ~(1 << a)

    return row


@dataclass(frozen=True)
class SolveResult:
    value: int
    status: str
    nodes_explored: int
    elapsed: float
    witness_indices: tuple[int, ...]
    witness: Optional[VectorFamily] = None

    @property
    def is_exact(self) -> bool:
        return self.status == STATUS_EXACT


def _greedy_independent(adj: Sequence[int], pool: int) -> int:
    """Deterministic greedy independent set inside pool, lowest index first."""
    chosen = 0
    while pool:
        low = pool & -pool
        v = low.bit_length() - 1
        chosen |= low
        pool &= ~(adj[v] | low)
    return chosen


def _greedy_clique_cover(adj: Sequence[int], pool: int) -> list[int]:
    """Partition pool into cliques greedily; the count bounds any independent set."""
    cliques = []
    remaining = pool
    while remaining:
        low = remaining & -remaining
        v = low.bit_length() - 1
        clique = low
        cands = remaining & adj[v] & ~low
        while cands:
            ulow = cands & -cands
            u = ulow.bit_length() - 1
            clique |= ulow
            cands &= adj[u] & ~ulow
        cliques.append(clique)
        remaining &= ~clique
    return cliques


def _sign_masks(pairs: Sequence[tuple[int, int]], n: int) -> tuple[list[int], list[int]]:
    """plus[i] and minus[i]: the pairs with +1 and with -1 at coordinate i, as bit masks."""
    plus = [0] * n
    minus = [0] * n
    for a, (pos, neg) in enumerate(pairs):
        for low in bits(pos):
            plus[low.bit_length() - 1] |= 1 << a
        for low in bits(neg):
            minus[low.bit_length() - 1] |= 1 << a
    return plus, minus


def _orbit_key(pos: int, neg: int, columns: Sequence[tuple[int, int]]) -> tuple[tuple, tuple]:
    """The sorted columns of the +1 coordinates of (pos, neg) and those of its -1 coordinates.

    columns[i] is coordinate i's column at a node, the taken vectors with
    +1 and with -1 there; _bnb says why two vectors share this key
    exactly when they share an orbit.
    """
    return (
        tuple(sorted(columns[low.bit_length() - 1] for low in bits(pos))),
        tuple(sorted(columns[low.bit_length() - 1] for low in bits(neg))),
    )


def _bnb(
    adj: Sequence[int],
    pool: int,
    best: int,
    deadline: float,
    family: Optional[VectorFamily] = None,
) -> tuple[int, int, bool]:
    """Search the vertices of pool from an empty set; (best mask, nodes, finished).

    Each node takes the vertices reductions force, is bounded by a fresh
    greedy clique cover of its pool and branches on a vertex of maximum
    degree, taking it first and then excluding its orbit.  The last
    reduction pass takes nothing, so the degrees it read are the pool's:
    that one scan finds the densest vertices.  The clock is read before
    each node: once it reaches the deadline the loop stops unfinished,
    at 0 nodes when the deadline had passed on entry.

    family, a whole class whose masks are in graph order, turns on
    orbital branching under the coordinate permutations that fix every
    taken vector (Ostrowski, Linderoth, Rossi & Smriglio, Orbital
    branching, 2011).  Those permutations keep every scalar product, so
    they map the node's problem onto itself when they also fix its pool,
    and an optimum below the node that holds any vertex of an orbit is
    the image of one that holds the branching vertex.  The pool is
    invariant under them: the class is, and so is N[mask]; each earlier
    exclusion is an orbit of a group that contains this one, as mask
    only grows down the tree.  Coordinate i's column is the taken
    vectors with +1 and with -1 at i.  A permutation fixes every taken
    vector exactly when it keeps each coordinate's column, so the group
    permutes freely the coordinates that share a column, and two vectors
    share an orbit exactly when they share an _orbit_key: as many +1s
    and as many -1s on each column.  The group also keeps the adjacency,
    hence each vertex's degree in the pool, so the densest vertices
    grouped by key are exactly their orbits in the pool.  The node
    branches on the lowest vertex of the largest group (the group with
    the lowest vertex on size ties), and the exclude child drops the
    whole group.  Without a family every orbit is the vertex itself, and
    the rule is the lowest-index densest vertex.
    """
    best_size = best.bit_count()
    if family is not None:
        plus, minus = _sign_masks(family.masks, family.profile.n)
    nodes = 0
    stack = [(pool, 0, 0)]
    while stack:
        if time.monotonic() >= deadline:
            return best, nodes, False
        pool, size, mask = stack.pop()
        nodes += 1

        # cheap reductions: a vertex with at most one neighbour is always
        # at least as good as that neighbour, so it is taken
        applied = True
        while applied:
            applied = False
            top, dense = 1, 0
            scan = pool
            while scan:
                low = scan & -scan
                scan ^= low
                if pool & low:
                    nbrs = adj[low.bit_length() - 1] & pool
                    deg = nbrs.bit_count()
                    if deg <= 1:
                        size += 1
                        mask |= low
                        pool &= ~(low | nbrs)
                        applied = True
                    elif deg > top:
                        top, dense = deg, low
                    elif deg == top:
                        dense |= low

        if not pool:
            if size > best_size:
                best_size, best = size, mask
            continue
        if size + len(_greedy_clique_cover(adj, pool)) <= best_size:
            continue

        # branch on the densest vertex; with a family, on the largest orbit among the densest
        orbit = dense & -dense
        if family is not None:
            columns = [(pos & mask, neg & mask) for pos, neg in zip(plus, minus)]
            groups: dict[tuple, int] = {}
            for low in bits(dense):
                key = _orbit_key(*family.masks[low.bit_length() - 1], columns)
                groups[key] = groups.get(key, 0) | low
            orbit = max(groups.values(), key=int.bit_count)
        bit = orbit & -orbit
        stack.append((pool & ~orbit, size, mask))
        stack.append((pool & ~(adj[bit.bit_length() - 1] | bit), size + 1, mask | bit))
    return best, nodes, True


def _result(
    family: Optional[VectorFamily], labels: Sequence[int], mask: int,
    finished: bool, nodes: int, start: float,
) -> SolveResult:
    """SolveResult for the vertex set mask of a graph whose vertex i is member labels[i].

    witness_indices are those members' indices in family, ascending, and
    the witness is the family of their mask pairs, checked by
    VectorFamily._of_masks (None without a family).
    A search that did not finish gives a lower-bound status; elapsed is
    measured from start.
    """
    indices = tuple(sorted(labels[low.bit_length() - 1] for low in bits(mask)))
    witness = None
    if family is not None:
        witness = VectorFamily._of_masks(family.profile, [family.masks[i] for i in indices])
    return SolveResult(
        value=len(indices),
        status=STATUS_EXACT if finished else STATUS_TIMEOUT,
        nodes_explored=nodes,
        elapsed=time.monotonic() - start,
        witness_indices=indices,
        witness=witness,
    )


def _deadline(start: float, budget: float) -> float:
    """The absolute deadline budget seconds after start; NaN and negative budgets count as spent."""
    return start + max(0.0, budget)


def mis_exact(graph: ConflictGraph, budget: float = 60.0) -> SolveResult:
    """Branch-and-bound maximum independent set of any graph.

    Every node is bounded by a greedy clique cover of its own pool.
    Deterministic, sequential and iterative (_bnb); a greedy independent
    set is the first incumbent.  When budget seconds pass before the
    search finishes, the best set found so far is returned with a
    lower-bound status at the first node that finds the deadline passed
    (before any node for a NaN or negative budget, see _deadline).
    Every exclude child drops one vertex: orbital branching (see _bnb)
    holds only for the conflict graph of a whole class.
    """
    adj = graph.adj
    start = time.monotonic()
    full = (1 << len(adj)) - 1
    deadline = _deadline(start, budget)
    best, nodes, finished = _bnb(adj, full, _greedy_independent(adj, full), deadline)
    return _result(graph.family, range(len(adj)), best, finished, nodes, start)


def mis_bruteforce(graph: ConflictGraph) -> SolveResult:
    """Exhaustive ground-truth maximum independent set for graphs up to 25 vertices.

    Lists every maximal independent set of graph.adj: Bron & Kerbosch
    (1973) on an explicit stack of (taken, candidates, excluded) masks,
    branching only on the candidates in the closed neighbourhood of a
    pivot that holds the fewest (Tomita, Tanaka & Takahashi, 2006).  It
    uses no bound or reduction, so it shares nothing with _bnb.
    nodes_explored counts the maximal sets, 0 for the empty graph.  The
    witness is the lexicographically first largest set: of two sets of
    one size, the one holding the lowest vertex of their difference.
    """
    n = graph.n_vertices
    if n > BRUTEFORCE_VERTEX_CAP:
        raise ValueError(f"oracle limited to {BRUTEFORCE_VERTEX_CAP} vertices, got {n}")
    start = time.monotonic()
    adj = graph.adj
    best = count = 0
    stack = [(0, (1 << n) - 1, 0)] if n else []
    while stack:
        taken, cands, excluded = stack.pop()
        if not cands:
            if not excluded:
                count += 1
                gain, diff = taken.bit_count() - best.bit_count(), taken ^ best
                if gain > 0 or gain == 0 and taken & diff & -diff:
                    best = taken
            continue
        pivot = min(
            bits(cands | excluded),
            key=lambda low: (cands & (adj[low.bit_length() - 1] | low)).bit_count(),
        )
        for low in bits(cands & (adj[pivot.bit_length() - 1] | pivot)):
            nbrs = adj[low.bit_length() - 1]
            stack.append((taken | low, cands & ~(nbrs | low), excluded & ~nbrs))
            cands ^= low
            excluded |= low
    return _result(graph.family, range(n), best, True, count, start)


def greedy_seed_g(profile: Profile) -> VectorFamily:
    """Strong avoiding family assembled from the known constructions.

    Starts from the full class at n = k + l (edgeless there since two
    disjoint plus supports would need 2k > k + l coordinates) and grows
    one dimension at a time, keeping the larger of the inductive
    extension and the fixed-first-coordinate family.
    """
    target_spec(profile, "g")  # refuses a profile outside k > l >= 1
    n, k, l = profile.n, profile.k, profile.l
    fam = enumerate_all(Profile(k + l, k, l))
    for dim in range(k + l + 1, n + 1):
        grown = inductive_extend(fam)
        fixed = ekr_family(Profile(dim, k, l))
        fam = grown if len(grown) >= len(fixed) else fixed
    return fam


def _solve_shifted(
    family: VectorFamily, labels: Sequence[int], pairs: Sequence[tuple[int, int]],
    conflict_row: Callable[[int], int], deadline: float, seed: int,
) -> SolveResult:
    """Optimum over shift-closed families only; see shifting.compress for why it is exact.

    labels is shift_order of the whole class family, pairs its masks in
    that order, conflict_row(r) the conflict row of pairs[r] and seed an
    independent set of their conflict graph, the first incumbent.  _bnb
    searches shifting.closure_graph's H from its live vertices, where
    every independent set is one of the conflict graph and the largest
    are shift-closed.  A deadline (time.monotonic()) already passed on
    entry returns the seed at 0 nodes without building H, the one costly
    phase worth skipping; after that _bnb checks the deadline before
    each node.  elapsed covers the H build and search.
    """
    start = time.monotonic()
    if start >= deadline:
        # the budget is spent: return the seed rather than build the closure graph
        return _result(family, labels, seed, False, 0, start)
    live, closed = closure_graph(pairs, family.profile.n, conflict_row)
    best, nodes, finished = _bnb(closed, live, seed, deadline)
    return _result(family, labels, best, finished, nodes, start)


def target_spec(profile: Profile, target: str) -> ForbiddenSpec:
    """The forbidden products of target on profile: the one definition of g and m.

    "g" forbids the single product -2l, the least in a class, and needs
    k > l >= 1; "m" forbids every negative product.  A target the
    profile does not admit raises ValueError.
    """
    if target == "g" and not profile.is_g_profile:
        raise ValueError(f"target g requires k > l >= 1, got k={profile.k}, l={profile.l}")
    if target not in ("g", "m"):
        raise ValueError(f"unknown target {target!r}; expected 'g' or 'm'")
    return ForbiddenSpec.exact({-2 * profile.l}) if target == "g" else ForbiddenSpec.all_below(0)


def solve_extremal(
    profile: Profile,
    target: str,
    budget: float = 60.0,
    shifted_pruning: Optional[bool] = None,
    vertex_cap: int = DEFAULT_VERTEX_CAP,
) -> SolveResult:
    """Exact extremal family size for a profile.

    target is "g" or "m", as target_spec defines them.  Shift-closure
    pruning (_solve_shifted) is on for both unless shifted_pruning is
    False, and keeps the optimum, as shifting.compress explains; the
    unpruned search is the independent route.  Without pruning _bnb
    branches on orbits of the class, as its docstring
    explains: the spec depends only on the product, which every
    coordinate permutation keeps.  The root's orbit is the whole class,
    so the root's take child is the whole search.
    One row builder (_row_builder) is set up per call, on the class in
    shift_order's order when pruning, in class order otherwise, and no
    row is computed twice.  The class is one orbit of the coordinate
    permutations, which keep every product, so every vertex has the same
    degree and row 0 alone tells whether the graph has edges.  One with
    no edges needs no search: the whole class is the answer, exact at 0
    nodes.  Otherwise the search starts from a construction
    (greedy_seed_g for g, the best split family for m), whose rows are
    computed to check it; one with a conflicting pair raises ValueError.
    The unpruned search reads every row; a pruned solve hands the rows
    it has to closure_graph, which computes only the others it reads.
    budget bounds the whole call: it sets one deadline (_deadline from
    entry) that the search stops at, and elapsed is measured from entry.
    A pruned solve checks it once more, in _solve_shifted, before the
    closure graph.
    """
    start = time.monotonic()
    spec = target_spec(profile, target)
    pruned = shifted_pruning is None or shifted_pruning
    family = _capped_class(profile, vertex_cap)
    labels = shift_order(family.masks) if pruned else range(len(family))
    pairs = [family.masks[i] for i in labels]
    row = _row_builder(pairs, profile, spec)
    known = {0: row(0)}
    full = (1 << len(pairs)) - 1
    if not known[0]:
        # nothing to avoid (for g, n < 2k leaves no room for a product -2l)
        return _result(family, labels, full, True, 0, start)

    def conflict_row(r: int) -> int:
        """Row r, handed over once from known when it was computed already."""
        return known.pop(r) if r in known else row(r)

    seed_family = greedy_seed_g(profile) if target == "g" else best_split_family(profile)
    seed_masks = set(seed_family.masks)
    seed = sum(1 << r for r, pair in enumerate(pairs) if pair in seed_masks)
    for low in bits(seed):
        r = low.bit_length() - 1
        if r not in known:
            known[r] = row(r)
        if known[r] & seed:
            raise ValueError("initial incumbent is not independent")

    deadline = _deadline(start, budget)
    if not pruned:
        adj = [conflict_row(r) for r in range(len(pairs))]
        best = max(seed, _greedy_independent(adj, full), key=int.bit_count)
        best, nodes, finished = _bnb(adj, full, best, deadline, family)
        return _result(family, labels, best, finished, nodes, start)
    result = _solve_shifted(family, labels, pairs, conflict_row, deadline, seed)
    return replace(result, elapsed=time.monotonic() - start)
