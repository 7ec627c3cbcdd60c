"""Coordinate shifts, the shift order, and family compression.

An (i <- j)-shift with i < j replaces coordinates (v_i, v_j) by
(max(v_i, v_j), min(v_i, v_j)): the larger value moves to the smaller
index.  Vector v precedes vector w when v is reachable from w by a
sequence of shifts.  A family is shifted when it is closed under every
single shift of every member, which is equivalent to closure under the
full reachability order.

shift_ij applies one shift to a vector; is_shifted, compress,
precedes_oracle and down_set_oracle are built on it, and the tests and
suites take them as the reference.  shift_covers gives, on (pos, neg)
masks, the images under the covering shifts only: those with no
coordinate between i and j valued in [v_i, v_j].  Every other shift is
a composite of covers (closure_graph gives the argument), so the covers
generate the same order.  shift_order gives a linear extension of it,
and closure_graph, on a class's (pos, neg) pairs, its conflict graph
lifted to the closure, where the solver searches: _cover_table lists
each vector's covers by rank, _up_sets pushes up-sets down the table,
and one pass pulls H up it, asking for a vector's conflict row only
when its covers leave it undecided.  compress says why searching
shift-closed families only keeps the optimum.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Sequence

from .vectors import SignedVector, VectorFamily, bits

_ORACLE_DIM_CAP = 8


def shift_ij(v: SignedVector, i: int, j: int) -> SignedVector:
    """Apply the (i <- j)-shift; returns v itself when v_i >= v_j.

    precedes_oracle and compress rely on that identity: an image that is
    v is one the shift did not move.
    """
    if not (1 <= i < j <= v.dim):
        raise ValueError(f"invalid move ({i}, {j}) for dimension {v.dim}")
    pos, neg = v.pos, v.neg
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    vi = 1 if pos & bi else -1 if neg & bi else 0
    vj = 1 if pos & bj else -1 if neg & bj else 0
    if vi >= vj:
        return v
    # v_i < v_j, so each mask holds at most one of the two bits: swap it
    swap = bi | bj
    pos = pos ^ swap if pos & swap else pos
    neg = neg ^ swap if neg & swap else neg
    return SignedVector(v.dim, pos, neg)


def _potential(pos: int, neg: int) -> int:
    """sum_i i * v_i of (pos, neg); a moving (i <- j)-shift lowers it by (j - i)(v_j - v_i)."""
    total = 0
    for mask, sign in ((pos, 1), (neg, -1)):
        while mask:
            low = mask & -mask
            total += sign * low.bit_length()
            mask ^= low
    return total


def shift_covers(pos: int, neg: int, full: int) -> list[tuple[int, int]]:
    """(pos, neg) masks of the covers of a vector: its images under its covering shifts.

    full has one bit per coordinate.  The (i <- j)-shift covers when
    v_i < v_j and no coordinate strictly between i and j has a value in
    [v_i, v_j]: a +1 at j swaps with the nearest coordinate to its left
    valued 0 or +1 when that one is 0, and with j - 1 when j - 1 is -1;
    a 0 at j swaps with the nearest coordinate to its left valued 0 or
    -1 when that one is -1.  Every other moving shift is a composite of
    covers (see closure_graph), so the covers generate the shift order.
    """
    out = []
    scan = pos
    while scan:
        bj = scan & -scan
        scan ^= bj
        near = (bj - 1) & ~neg
        bi = 1 << near.bit_length() - 1 if near else 0
        if bi and not pos & bi:
            out.append((pos ^ bi ^ bj, neg))
        if neg & bj >> 1:
            swap = bj | bj >> 1
            out.append((pos ^ swap, neg ^ swap))
    scan = full & ~(pos | neg)
    while scan:
        bj = scan & -scan
        scan ^= bj
        near = (bj - 1) & ~pos
        bi = 1 << near.bit_length() - 1 if near else 0
        if neg & bi:
            out.append((pos, neg ^ bi ^ bj))
    return out


def shift_order(pairs: Sequence[tuple[int, int]]) -> list[int]:
    """Indices of (pos, neg) pairs by ascending _potential, index on ties.

    That is a linear extension of the shift order.
    """
    return sorted(range(len(pairs)), key=lambda i: _potential(*pairs[i]))


def closure_graph(
    pairs: Sequence[tuple[int, int]], n: int, conflict_row: Callable[[int], int]
) -> tuple[int, list[int]]:
    """(live, H): a class's conflict graph adj, in shift_order's order, lifted to the closure.

    conflict_row(r) is adj[r], the conflict row of pairs[r].  With
    down(u) for u and every member below it in the shift order and
    up(u) for u and every member above it: u is live when down(u) is
    independent in adj, and H joins live u and v when some a in down(u)
    and b in down(v) are adjacent.  A shift-closed independent set of
    adj lies in live and is independent in H; for S independent in H,
    down(S) is shift-closed, independent in H and in adj, and holds S.
    So a maximum independent set of H[live] is a largest shift-closed
    independent set of adj; and as H holds every edge of adj between
    live vertices, every independent set of H is one of adj.

    Both closures run over the covers only, from one _cover_table of the
    class's (pos, neg) pairs and its dimension n.  A
    moving (i <- j)-shift with some coordinate k strictly between valued
    in [v_i, v_j] is a composite of shifts over shorter segments: of
    (k <- j) then (i <- k) when v_k = v_i, of (i <- k) then (k <- j) when
    v_k = v_j, and of (i <- k), (k <- j), (i <- k) when v_i < v_k < v_j.
    Each of those moves its vector, so by induction on j - i every shift
    is a chain of covers, and down and up are the covers' closures.

    With A[u] for the neighbours of down(u), u is dead when it lies in
    up(A[u]), and H[u] is up(A[u]) on live vertices, empty at dead ones.
    up(A[u]) is up(adj[u]) with up(A[s]) for every cover s of u, pulled
    in one pass in rank order.  An up-set holds the up of each of its
    members, so only the neighbours of u outside the covers' rows are
    looked up: one or two per vertex on the g and m classes, none once u
    lies in its covers' rows, which makes u dead.  So conflict_row is
    called once for each vertex whose covers are all live, and for no
    other: the live vertices, and any dead one that only its own row
    kills.  There is no such dead vertex on the 282 g and m classes with
    n <= 10 and at most 3000 vectors, so there it is called for the live
    vertices alone.
    A dead row is stored as up(u), shared with _up_sets: it holds dead
    vertices only, and no live row joins a dead one.
    """
    table = _cover_table(pairs, n)
    up = _up_sets(table)
    graph = []
    for r, covers in enumerate(table):
        row = 0
        for s in covers:
            row |= graph[s]
        if not row >> r & 1:
            for low in bits(conflict_row(r) & ~row):
                row |= up[low.bit_length() - 1]
        graph.append(up[r] if row >> r & 1 else row)
    del up
    live = sum(1 << r for r, row in enumerate(graph) if not row >> r & 1)
    return live, [row & live if live >> r & 1 else 0 for r, row in enumerate(graph)]


def _cover_table(pairs: Sequence[tuple[int, int]], n: int) -> list[list[int]]:
    """table[r]: the ranks of the covers of pairs[r], an n-dimensional class in shift_order's order.

    Every cover lowers _potential, so it ranks below its source.
    """
    full = (1 << n) - 1
    rank = {pair: r for r, pair in enumerate(pairs)}
    return [[rank[cover] for cover in shift_covers(pos, neg, full)] for pos, neg in pairs]


def _up_sets(table: Sequence[Sequence[int]]) -> list[int]:
    """up[r]: r and every rank above it in the shift order, as a mask, from _cover_table's table.

    In reverse rank order every source of r pushes into up[r] before r pushes it on.
    """
    up = [1 << r for r in range(len(table))]
    for r in reversed(range(len(table))):
        for s in table[r]:
            up[s] |= up[r]
    return up


def precedes(v: SignedVector, w: SignedVector) -> bool:
    """Fast reachability test: is v obtainable from w by shifts?

    Characterization used: the coordinate multisets agree, and for every
    prefix [1, p] and both thresholds c in {0, 1} the count of
    coordinates >= c in v dominates the count in w.  Validated against
    both shift oracles.
    """
    if v.dim != w.dim:
        raise ValueError(f"dimension mismatch: {v.dim} vs {w.dim}")
    if v.k != w.k or v.l != w.l:
        return False
    plus_v = plus_w = nonneg_v = nonneg_w = 0
    for p in range(1, v.dim + 1):
        bit = 1 << (p - 1)
        if v.pos & bit:
            plus_v += 1
        if w.pos & bit:
            plus_w += 1
        if not v.neg & bit:
            nonneg_v += 1
        if not w.neg & bit:
            nonneg_w += 1
        if plus_v < plus_w or nonneg_v < nonneg_w:
            return False
    return True


def precedes_oracle(v: SignedVector, w: SignedVector) -> bool:
    """Ground-truth reachability by breadth-first search over shift images.

    Exhaustive and slow; guarded to dimension <= 8.
    """
    if v.dim != w.dim:
        raise ValueError(f"dimension mismatch: {v.dim} vs {w.dim}")
    if v.dim > _ORACLE_DIM_CAP:
        raise ValueError(f"oracle limited to dimension {_ORACLE_DIM_CAP}, got {v.dim}")
    if v == w:
        return True
    moves = list(combinations(range(1, w.dim + 1), 2))
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for u in frontier:
            for i, j in moves:
                img = shift_ij(u, i, j)
                # an unmoved image is u itself, already seen
                if img is not u and img not in seen:
                    if img == v:
                        return True
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return False


def down_set_oracle(
    w: SignedVector, known: dict[SignedVector, frozenset[SignedVector]]
) -> frozenset[SignedVector]:
    """Every vector reachable from w by shifts, w included.

    Built by the definition: {w} with the down-sets of w's moved
    single-shift images.  known maps each vector already reached to its
    down-set; the caller owns it, shares it between calls that should
    reuse work, and drops it when done.  Every vector reached is added.
    An image u has a lower _potential(u.pos, u.neg) than its source, so
    the explicit stack finishes every image before its source.  Guarded
    to dimension <= 8.
    """
    if w.dim > _ORACLE_DIM_CAP:
        raise ValueError(f"oracle limited to dimension {_ORACLE_DIM_CAP}, got {w.dim}")
    if w in known:
        return known[w]
    moves = list(combinations(range(1, w.dim + 1), 2))
    images: dict[SignedVector, set[SignedVector]] = {}
    stack = [w]
    while stack:
        u = stack[-1]
        if u in known:
            stack.pop()
            continue
        if u not in images:
            # an unmoved image is u itself
            images[u] = {img for i, j in moves if (img := shift_ij(u, i, j)) is not u}
            stack.extend(img for img in images[u] if img not in known)
            continue
        known[u] = frozenset((u,)).union(*(known[img] for img in images.pop(u)))
        stack.pop()
    return known[w]


def is_shifted(fam: VectorFamily) -> bool:
    """True when every single-shift image of every member is itself a member."""
    masks = set(fam.masks)
    moves = list(combinations(range(1, fam.profile.n + 1), 2))
    images = (shift_ij(v, i, j) for v in fam for i, j in moves)
    return all((img.pos, img.neg) in masks for img in images)


def compress(fam: VectorFamily) -> VectorFamily:
    """Shift the whole family to a fixpoint; preserves cardinality.

    One pass for a shift S at i < j replaces each member v by S(v) unless
    S(v) is already present.  Shifts are scanned in lexicographic order
    and the scan restarts after any change.  Each replacement lowers
    _potential(v.pos, v.neg) by (j - i)(v_j - v_i) > 0, so the family's
    total _potential strictly decreases; it is bounded below, so compression
    ends, at a shifted family.

    Compression keeps every product floor: if all products in F are at
    least s, so are all products in the compressed family (Frankl's
    compression argument).  Take v that S moves and w in F.  If w moves
    too, S(v).S(w) = v.w.  If w does not move because w_i >= w_j,
    S(v).w - v.w = (v_j - v_i)(w_i - w_j) >= 0.  If w stays because S(w)
    is in F already, S(v).w = v.S(w).  g asks every product to be at
    least 1 - 2l, since -2l is the least product in a class, and m asks
    at least 0; so for both targets some optimum is shifted, and the
    solver searches shift-closed families only.
    """
    members = set(fam.members)
    moves = list(combinations(range(1, fam.profile.n + 1), 2))
    changed = True
    while changed:
        changed = False
        for i, j in moves:
            replacements = []
            for v in members:
                img = shift_ij(v, i, j)
                if img is not v and img not in members:
                    replacements.append((v, img))
            if replacements:
                for v, img in replacements:
                    members.remove(v)
                    members.add(img)
                changed = True
                break
    return VectorFamily(fam.profile, members)
