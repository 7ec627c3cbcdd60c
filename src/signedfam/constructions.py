"""Explicit extremal-family constructions and the member classification.

Constructions: the fixed-first-coordinate family, the one-dimension
inductive extension, and one-cut split families, with best_split_family
the one place that picks the optimal cut.  Each takes its (pos, neg)
pairs, in canonical order, from the one generator vectors.canonical_pairs
and hands them to VectorFamily._of_masks, which skips the family-level
checks that the construction already makes true; so do
partition_by_last and xy_families with the pairs they keep.
xy_class is the one window-class rule: it puts a (pos, neg) pair into
its class (side, m) at window count t, so one pass over a class's mask
pairs counts every window class of it and builds no vector.  xy_families
splits them into the x and y classes at one (t, m), family_xy_tm one side.
Classification sorts the plus-final members of a family into the two
structure classes that exhaust any shifted family avoiding the minimum
product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Optional

from .formulas import p_split
from .vectors import (
    Profile,
    SignedVector,
    SuffixMarkers,
    VectorFamily,
    _mask_of,
    bits,
    canonical_pairs,
    enumerate_all,
    full_window,
    suffix_markers,
)


def ekr_family(profile: Profile) -> VectorFamily:
    """All vectors with +1 at coordinate 1: size C(n-1, k+l-1) * C(k+l-1, l).

    No two members reach the minimum product -2l since their plus
    supports share coordinate 1.
    """
    rest = [1 << i for i in range(1, profile.n)]
    pairs = canonical_pairs(rest, rest, profile.k - 1, profile.l, fixed_pos=1)
    return VectorFamily._of_masks(profile, pairs)


def inductive_extend(fam: VectorFamily) -> VectorFamily:
    """Extend an avoiding family over n to one over n + 1.

    Appends a zero coordinate to each member and adds every (n+1)-vector
    whose final coordinate is -1.  The added group is pairwise safe (two
    final -1s contribute +1 to the product) and safe against the lifted
    members (the final coordinate contributes 0), so the result again
    avoids -2l.  The growth count is C(n, k+l-1) * C(k+l-1, l-1).
    The input is not re-verified: a family from outside the program is
    checked by its caller.
    """
    p = fam.profile
    if p.l < 1:
        raise ValueError("extension requires l >= 1")
    new_profile = Profile(p.n + 1, p.k, p.l)
    every = [1 << i for i in range(p.n)]
    added = canonical_pairs(every, every, p.k, p.l - 1, fixed_neg=1 << p.n)
    return VectorFamily._of_masks(new_profile, [*fam.masks, *added])


def split_family(profile: Profile, plus_side: Iterable[int]) -> VectorFamily:
    """All vectors with plus support inside plus_side and minus support outside.

    Any two members have nonnegative product.  Size C(|X|, k) * C(n-|X|, l);
    maximized over |X| by the split count p(n, k, l).
    """
    n, k, l = profile.n, profile.k, profile.l
    plus = _mask_of(plus_side, n)
    minus = (1 << n) - 1 & ~plus
    if plus.bit_count() < k:
        raise ValueError(f"plus side has {plus.bit_count()} coordinates; needs at least k={k}")
    if minus.bit_count() < l:
        raise ValueError(f"minus side has {minus.bit_count()} coordinates; needs at least l={l}")
    pairs = canonical_pairs(bits(plus), bits(minus), k, l)
    return VectorFamily._of_masks(profile, pairs)


def best_split_family(profile: Profile) -> VectorFamily:
    """The split family of size p(n, k, l): plus side [1, x] for p_split's smallest maximizer x."""
    x = p_split(profile.n, profile.k, profile.l).argmax
    return split_family(profile, range(1, x + 1))


def partition_by_last(fam: VectorFamily) -> tuple[VectorFamily, VectorFamily, VectorFamily]:
    """Split a family by the final coordinate: (minus, zero, plus) classes."""
    p = fam.profile
    last = 1 << (p.n - 1)
    minus, zero, plus = [], [], []
    for pos, neg in fam.masks:
        (plus if pos & last else minus if neg & last else zero).append((pos, neg))
    return tuple(VectorFamily._of_masks(p, side) for side in (minus, zero, plus))


def xy_class(pair: tuple, profile: Profile, t: int) -> Optional[tuple[Literal["x", "y"], int]]:
    """The window class (side, m) of a (pos, neg) pair of the profile at window count t, or None.

    The window is [1, 2t-1] and must stay clear of the final coordinate.
    Side "y": final coordinate +1 and t plus coordinates in the window; m
    counts its minus coordinates.  Side "x": final coordinate -1 and
    max(t - (k - l), 0) minus coordinates in the window; m counts its
    plus coordinates.
    """
    pos, neg = pair
    window = (1 << (2 * t - 1)) - 1
    last = 1 << (profile.n - 1)
    if pos & last:
        if (pos & window).bit_count() == t:
            return "y", (neg & window).bit_count()
    elif neg & last:
        if (neg & window).bit_count() == max(t - (profile.k - profile.l), 0):
            return "x", (pos & window).bit_count()
    return None


def xy_families(profile: Profile, t: int, m: int) -> tuple[VectorFamily, VectorFamily]:
    """The x and y window classes (side, m) at t, from one pass over the class's mask pairs."""
    n, k = profile.n, profile.k
    if not 1 <= t <= k:
        raise ValueError(f"requires 1 <= t <= k, got t={t}")
    if m < 0:
        raise ValueError(f"requires m >= 0, got m={m}")
    # the window must avoid the fixed final coordinate
    if 2 * t - 1 > n - 1:
        raise ValueError(f"window [1, {2 * t - 1}] reaches the final coordinate {n}")
    sides: dict[str, list[tuple[int, int]]] = {"x": [], "y": []}
    for pair in enumerate_all(profile).masks:
        found = xy_class(pair, profile, t)
        if found is not None and found[1] == m:
            sides[found[0]].append(pair)
    return VectorFamily._of_masks(profile, sides["x"]), VectorFamily._of_masks(profile, sides["y"])


def family_xy_tm(profile: Profile, t: int, m: int, side: Literal["x", "y"]) -> VectorFamily:
    """The members of the profile's class that xy_class puts in (side, m) at t."""
    if side not in ("x", "y"):
        raise ValueError(f"side must be 'x' or 'y', got {side!r}")
    return xy_families(profile, t, m)[side == "y"]


@dataclass(frozen=True)
class ClassificationLabel:
    """Structure class of one plus-final vector.

    kind "B1" carries (t, m): the smallest window count t with exactly t
    plus coordinates in [1, 2t-1], and the number m of minus coordinates
    in [1, t].  kind "B2" carries (j, jprime) = (count of -1s from the
    marker on, marker index) from the suffix markers.  kind
    "unclassified" is legal only for vectors outside shifted avoiding
    families.  markers are reported whenever they exist, for either kind.
    in_b1_prime flags B1 labels with t <= k - l or m = 0; cond12 flags B2
    labels satisfying jprime - 1 >= 2(k - j + 1).
    """

    kind: Literal["B1", "B2", "unclassified"]
    t: Optional[int] = None
    m: Optional[int] = None
    j: Optional[int] = None
    jprime: Optional[int] = None
    markers: Optional[SuffixMarkers] = None
    in_b1_prime: bool = False
    cond12: Optional[bool] = None


def classify_vector(v: SignedVector) -> ClassificationLabel:
    """Assign the structure class of a vector whose final coordinate is +1."""
    if v.last != 1:
        raise ValueError(f"classification requires final coordinate +1, got {v}")
    k, l = v.k, v.l
    markers = suffix_markers(v)

    t_found = full_window(v)
    if t_found is not None:
        prefix = (1 << t_found) - 1
        m = (v.neg & prefix).bit_count()
        return ClassificationLabel(
            kind="B1",
            t=t_found,
            m=m,
            markers=markers,
            in_b1_prime=t_found <= k - l or m == 0,
        )

    if markers is not None:
        jprime = markers.index
        j = markers.neg_count
        return ClassificationLabel(
            kind="B2",
            j=j,
            jprime=jprime,
            markers=markers,
            cond12=jprime - 1 >= 2 * (k - j + 1),
        )

    return ClassificationLabel(kind="unclassified", markers=markers)
