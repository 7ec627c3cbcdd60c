"""Signed vectors with entries in {0, +1, -1} and fixed support sizes.

A vector of profile ``(n, k, l)`` has dimension ``n``, exactly ``k``
coordinates equal to +1 and exactly ``l`` coordinates equal to -1.
Coordinates are 1-indexed.  Vectors are stored as a pair of bit masks
(bit ``i-1`` of ``pos``/``neg`` holds coordinate ``i``), in slots, and
are immutable and hashable.  A family is its distinct (pos, neg) pairs,
sorted ascending, in ``VectorFamily.masks``: that order is the canonical
member order, and canonical_pairs is the one generator that emits it.
_check_pairs checks each vector when SignedVector's own constructor, the
one way to build one, builds it, and each family's pairs when the family
is built; the members are built on first read, so a family that is only
counted never builds them.  Every bulk product scan reads one kernel, products.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .formulas import family_size

_DIM_CAP = 128


def _mask_of(indices: Iterable[int], dim: int) -> int:
    mask = 0
    for i in indices:
        if not 1 <= i <= dim:
            raise ValueError(f"index {i} out of range [1, {dim}]")
        mask |= 1 << (i - 1)
    return mask


def bits(mask: int) -> list[int]:
    """The set bits of mask, each as a one-bit mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def _indices_of(mask: int) -> tuple[int, ...]:
    return tuple(low.bit_length() for low in bits(mask))


def _check_pairs(dim: int, pairs: Iterable[tuple[int, int]]) -> None:
    """Raise ValueError unless every (pos, neg) pair fits dim and has disjoint masks."""
    full = (1 << dim) - 1
    for pos, neg in pairs:
        if not 0 <= pos <= full or not 0 <= neg <= full:
            raise ValueError("support mask out of range for dimension")
        if pos & neg:
            raise ValueError("plus and minus supports overlap")


@dataclass(frozen=True)
class Profile:
    """Vector class parameters: dimension n, k plus-coordinates, l minus-coordinates."""

    n: int
    k: int
    l: int

    def __post_init__(self) -> None:
        for name, val in (("n", self.n), ("k", self.k), ("l", self.l)):
            if not isinstance(val, int):
                raise ValueError(f"profile field {name} must be an integer, got {val!r}")
        if self.k < 1:
            raise ValueError(f"profile requires k >= 1, got k={self.k}")
        if self.l < 0:
            raise ValueError(f"profile requires l >= 0, got l={self.l}")
        if self.n < self.k + self.l:
            raise ValueError(
                f"profile requires n >= k + l, got n={self.n}, k+l={self.k + self.l}"
            )
        if self.n > _DIM_CAP:
            raise ValueError(f"dimension {self.n} exceeds cap {_DIM_CAP}")

    @property
    def is_g_profile(self) -> bool:
        """True when the minimum-product avoidance problem applies: k > l >= 1."""
        return self.k > self.l >= 1

    def family_size(self) -> int:
        """Number of vectors in the class: C(n, k+l) * C(k+l, k)."""
        return family_size(self.n, self.k, self.l)


@dataclass(frozen=True, slots=True)
class SignedVector:
    """One {0,+1,-1} vector: dimension plus disjoint plus/minus index masks."""

    dim: int
    pos: int
    neg: int

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dim!r}")
        if self.dim > _DIM_CAP:
            raise ValueError(f"dimension {self.dim} exceeds cap {_DIM_CAP}")
        _check_pairs(self.dim, ((self.pos, self.neg),))

    @classmethod
    def from_supports(
        cls, dim: int, pos: Iterable[int], neg: Iterable[int]
    ) -> "SignedVector":
        """Build a vector from 1-indexed plus and minus index collections."""
        return cls(dim, _mask_of(pos, dim), _mask_of(neg, dim))

    @classmethod
    def parse(cls, text: str) -> "SignedVector":
        """Parse a string over {+, -, 0}; position in the string is the coordinate."""
        text = text.strip()
        if not text:
            raise ValueError("empty vector string")
        pos = neg = 0
        for i, ch in enumerate(text):
            if ch == "+":
                pos |= 1 << i
            elif ch == "-":
                neg |= 1 << i
            elif ch != "0":
                raise ValueError(f"invalid character {ch!r} at position {i + 1}")
        return cls(len(text), pos, neg)

    @property
    def k(self) -> int:
        return self.pos.bit_count()

    @property
    def l(self) -> int:
        return self.neg.bit_count()

    def value_at(self, i: int) -> int:
        """Coordinate value at 1-indexed position i."""
        if not 1 <= i <= self.dim:
            raise ValueError(f"index {i} out of range [1, {self.dim}]")
        bit = 1 << (i - 1)
        if self.pos & bit:
            return 1
        if self.neg & bit:
            return -1
        return 0

    def values(self) -> tuple[int, ...]:
        return tuple(self.value_at(i) for i in range(1, self.dim + 1))

    def pos_support(self) -> tuple[int, ...]:
        """Ascending 1-indexed positions of +1 coordinates."""
        return _indices_of(self.pos)

    def neg_support(self) -> tuple[int, ...]:
        """Ascending 1-indexed positions of -1 coordinates."""
        return _indices_of(self.neg)

    def format(self) -> str:
        chars = []
        for i in range(self.dim):
            bit = 1 << i
            chars.append("+" if self.pos & bit else "-" if self.neg & bit else "0")
        return "".join(chars)

    def __str__(self) -> str:
        return self.format()

    @property
    def last(self) -> int:
        """Value of the final coordinate."""
        return self.value_at(self.dim)


class SuffixMarkers(NamedTuple):
    """Largest start index whose suffix sums to -1, and the count of -1s from there on."""

    index: int
    neg_count: int


def scalar_product(v: SignedVector, w: SignedVector) -> int:
    """Standard scalar product; computed from the four support intersections."""
    if v.dim != w.dim:
        raise ValueError(f"dimension mismatch: {v.dim} vs {w.dim}")
    return (
        (v.pos & w.pos).bit_count()
        + (v.neg & w.neg).bit_count()
        - (v.pos & w.neg).bit_count()
        - (v.neg & w.pos).bit_count()
    )


def products(pair: tuple[int, int], pairs: Sequence[tuple[int, int]]) -> list[int]:
    """The scalar product of the (pos, neg) pair against each pair of pairs, in order."""
    pa, na = pair
    return [
        (pa & pb).bit_count() + (na & nb).bit_count()
        - (pa & nb).bit_count() - (na & pb).bit_count()
        for pb, nb in pairs
    ]


@dataclass(frozen=True)
class ForbiddenSpec:
    """Which scalar products create a conflict edge.

    Exactly one of exact_values (a nonempty set of forbidden products)
    or below (every product strictly less is forbidden) is set.
    """

    exact_values: Optional[frozenset[int]] = None
    below: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.exact_values is None) == (self.below is None):
            raise ValueError("exactly one of exact_values / below must be given")
        if self.exact_values is not None and not self.exact_values:
            raise ValueError("exact_values must be nonempty")

    @classmethod
    def exact(cls, values) -> "ForbiddenSpec":
        return cls(exact_values=frozenset(values))

    @classmethod
    def all_below(cls, threshold: int) -> "ForbiddenSpec":
        return cls(below=threshold)

    def forbids(self, product: int) -> bool:
        if self.exact_values is not None:
            return product in self.exact_values
        return product < self.below

    def describe(self) -> str:
        if self.exact_values is not None:
            return "exact:" + ",".join(str(v) for v in sorted(self.exact_values))
        return f"below:{self.below}"


@dataclass(frozen=True)
class FamilyCheck:
    ok: bool
    pairs_checked: int
    violation: Optional[tuple[SignedVector, SignedVector, int]] = None


def verify_family(fam: VectorFamily, spec: ForbiddenSpec) -> FamilyCheck:
    """Scan all pairs of a family for a forbidden product; first hit wins.

    Row a holds the products of member a with every later member, read
    from the mask pairs by products and tested against the forbidden
    products in [-(k+l), k+l], the only ones two members of the profile
    can have.  Members are built only to report a violation.
    """
    reach = fam.profile.k + fam.profile.l
    forbidden = {x for x in range(-reach, reach + 1) if spec.forbids(x)}
    masks = fam.masks
    size = len(masks)
    for a in range(size - 1):
        row = products(masks[a], masks[a + 1:])
        if not forbidden.isdisjoint(row):
            j = next(j for j, prod in enumerate(row) if prod in forbidden)
            # rows 0..a-1 hold size-1-i pairs each; row a has reached its pair j
            checked = a * (2 * size - a - 1) // 2 + j + 1
            members = fam.members
            return FamilyCheck(False, checked, (members[a], members[a + 1 + j], row[j]))
    return FamilyCheck(True, size * (size - 1) // 2)


def min_suffix_sum(v: SignedVector) -> int:
    """Minimum over i in [1, dim] of the coordinate sum over [i, dim].

    The empty suffix is excluded, so the result is at most the full
    coordinate sum k - l and can be negative.
    """
    running = 0
    best = None
    for i in range(v.dim, 0, -1):
        running += v.value_at(i)
        if best is None or running < best:
            best = running
    assert best is not None
    return best


def suffix_markers(v: SignedVector) -> Optional[SuffixMarkers]:
    """Locate the largest i whose suffix [i, dim] sums to exactly -1.

    Returns None when no suffix sums to -1.  A marker is guaranteed to
    exist whenever min_suffix_sum(v) <= -1, because consecutive suffix
    sums differ by at most 1.
    """
    running = 0
    for i in range(v.dim, 0, -1):
        running += v.value_at(i)
        if running == -1:
            shifted = v.neg >> (i - 1)
            return SuffixMarkers(i, shifted.bit_count())
    return None


def full_window(v: SignedVector) -> Optional[int]:
    """The smallest t whose window [1, 2t-1] holds exactly t plus coordinates, or None."""
    count = 0
    t = 1
    while 2 * t - 1 <= v.dim:
        # grow the window from 2t-3 to 2t-1 coordinates
        for idx in range(2 * t - 3 if t > 1 else 0, 2 * t - 1):
            if v.pos & (1 << idx):
                count += 1
        if count == t:
            return t
        t += 1
    return None


class VectorFamily:
    """Immutable, deduplicated, canonically ordered set of same-profile vectors.

    masks holds the members' (pos, neg) pairs in canonical order; the
    members are built from it on first read, and membership bisects it.
    """

    __slots__ = ("profile", "masks", "_members")

    def __init__(self, profile: Profile, members: Iterable[SignedVector] = ()):
        dedup = set(members)
        for v in dedup:
            if v.dim != profile.n or v.k != profile.k or v.l != profile.l:
                raise ValueError(
                    f"vector {v} does not match profile "
                    f"(n={profile.n}, k={profile.k}, l={profile.l})"
                )
        self._fill(profile, tuple(sorted((v.pos, v.neg) for v in dedup)))

    @classmethod
    def _of_masks(cls, profile: Profile, masks: Iterable[tuple[int, int]]) -> "VectorFamily":
        """The family of the given (pos, neg) mask pairs, for builders inside the program.

        The pairs must be distinct and of the profile, as neither is
        checked here; each is checked by _check_pairs, as SignedVector
        checks its masks, so a bad pair raises ValueError from this call.
        The builders hand their pairs in canonical order, in one or two
        ascending runs, on which the sort is a linear pass.
        """
        pairs = tuple(sorted(masks))
        _check_pairs(profile.n, pairs)
        fam = cls.__new__(cls)
        fam._fill(profile, pairs)
        return fam

    def _fill(self, profile: Profile, masks: tuple[tuple[int, int], ...]) -> None:
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "_members", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("VectorFamily is immutable")

    @property
    def members(self) -> tuple[SignedVector, ...]:
        """The members in canonical order, built by SignedVector's constructor on first read."""
        if self._members is None:
            members = tuple(SignedVector(self.profile.n, pos, neg) for pos, neg in self.masks)
            object.__setattr__(self, "_members", members)
        return self._members

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[SignedVector]:
        return iter(self.members)

    def __contains__(self, v: object) -> bool:
        if not isinstance(v, SignedVector) or v.dim != self.profile.n:
            return False
        pair = (v.pos, v.neg)
        i = bisect_left(self.masks, pair)
        return i < len(self.masks) and self.masks[i] == pair

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorFamily):
            return NotImplemented
        return self.profile == other.profile and self.masks == other.masks

    def __hash__(self) -> int:
        return hash((self.profile, self.masks))

    def __repr__(self) -> str:
        p = self.profile
        return f"VectorFamily(n={p.n}, k={p.k}, l={p.l}, size={len(self)})"

    def to_text(self) -> str:
        """Family file format: header line 'n k l', then one vector per line."""
        p = self.profile
        lines = [f"{p.n} {p.k} {p.l}"]
        lines.extend(v.format() for v in self.members)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "VectorFamily":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty family file")
        header = lines[0].split()
        if len(header) != 3:
            raise ValueError(f"malformed header line {lines[0]!r}; expected 'n k l'")
        try:
            n, k, l = (int(tok) for tok in header)
        except ValueError:
            raise ValueError(f"malformed header line {lines[0]!r}; expected integers") from None
        profile = Profile(n, k, l)
        members = []
        for ln in lines[1:]:
            v = SignedVector.parse(ln)
            if v.dim != n:
                raise ValueError(f"vector {ln!r} has dimension {v.dim}, expected {n}")
            members.append(v)
        return cls(profile, members)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path: str) -> "VectorFamily":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())


def canonical_pairs(
    plus_bits: list[int], minus_bits: list[int], k: int, l: int, fixed_pos=0, fixed_neg=0
) -> Iterator[tuple[int, int]]:
    """The (pos, neg) pairs of k plus and l minus bits, in canonical order.

    pos is fixed_pos with each k-subset of plus_bits and neg is fixed_neg
    with each l-subset of the minus_bits outside pos, each ascending:
    combinations over descending bits lists the subsets' masks descending.
    """
    minus_desc = sorted(minus_bits, reverse=True)
    for plus in reversed([sum(c) for c in combinations(sorted(plus_bits, reverse=True), k)]):
        pos = fixed_pos | plus
        free = [b for b in minus_desc if not b & pos]
        for minus in reversed([sum(c) for c in combinations(free, l)]):
            yield pos, fixed_neg | minus


def enumerate_all(profile: Profile) -> VectorFamily:
    """Every vector of the profile, in canonical order.

    The count always equals C(n, k+l) * C(k+l, k).
    """
    every = [1 << i for i in range(profile.n)]
    return VectorFamily._of_masks(profile, canonical_pairs(every, every, profile.k, profile.l))
