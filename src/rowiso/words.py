"""Words in two families of generators and the commutation calculus.

Conventions used across the whole package:

* Letters are 1-based integers.  A plain word is a tuple of letters,
  index 0 being the *outermost* (leftmost) operator, the last entry the
  *innermost* one, i.e. ``u = (2, 1)`` denotes the product ``S2 S1``
  and acts on a vector by applying ``S1`` first.
* A mixed word tags each letter with its family: ``(('s', 1), ('t', 2))``
  is the product ``S1 T2``.
* Two families ``S1..Sm`` and ``T1..Tn`` commute along a bijection
  ``theta`` of ``[m] x [n]``:

      ``S_i T_j = T_{j'} S_{i'}``   where ``theta(i, j) = (i', j')``.

* The normal form of a mixed product puts every T-letter before every
  S-letter (``T_w S_u``).  ``normalize`` produces it; ``denormalize``
  converts a normal form to the opposite ``S_u T_w`` shape.

Nothing here touches Hilbert space: this module is pure word
combinatorics, shared by the presentation and pair machinery.  The
rewriting system has no overlapping redexes (each step consumes one
adjacent S-before-T pair) and every step strictly decreases the number
of S-before-T inversions, so all reduction orders terminate in the same
normal form; the test suite checks this exhaustively rather than
trusting the argument.
"""

from __future__ import annotations

from itertools import product as _cartesian
from typing import Iterable, Sequence

from .errors import ResourceExceeded, ValidationError

Word = tuple[int, ...]
Letter = tuple[str, int]
MixedWord = tuple[Letter, ...]

EPSILON: Word = ()

_DOMAIN = "theta domain must be all of [m] x [n]"
_BIJECTION = "theta must be a bijection of [m] x [n]"


def validate_word(word: Sequence[int], alphabet_size: int) -> Word:
    """Return ``word`` as a tuple after checking every letter is in range."""
    w = tuple(word)
    for letter in w:
        if not isinstance(letter, int) or isinstance(letter, bool):
            raise ValidationError(f"letter {letter!r} is not an integer")
        if not 1 <= letter <= alphabet_size:
            raise ValidationError(
                f"letter {letter} outside alphabet 1..{alphabet_size}"
            )
    return w


class Theta:
    """A bijection of ``[m] x [n]`` driving the commutation rule.

    ``theta.map[(i, j)] == (i2, j2)`` encodes ``S_i T_j = T_{j2} S_{i2}``.
    Keys and values are pairs of labels, each an ``int`` (not a
    ``bool``), checked once; the inverse map, which the calculus needs
    as often, shows by its size whether theta is a bijection.
    """

    __slots__ = ("m", "n", "map", "inverse_map")

    def __init__(self, m: int, n: int, mapping: dict):
        if m < 1 or n < 1:
            raise ValidationError("alphabet sizes must be positive")
        if len(mapping) != m * n:
            raise ValidationError(_DOMAIN)
        pairs = dict(mapping)
        # m * n distinct keys in [m] x [n] are the domain, checked first
        for entries, error in ((pairs, _DOMAIN), (pairs.values(), _BIJECTION)):
            for e in entries:
                if not (type(e) is tuple and len(e) == 2
                        and type(e[0]) is int and 0 < e[0] <= m
                        and type(e[1]) is int and 0 < e[1] <= n):
                    _check_entry(e, m, n, error)
        inverse = {v: k for k, v in pairs.items()}
        if len(inverse) != len(pairs):
            raise ValidationError(_BIJECTION)
        self.m = m
        self.n = n
        self.map = pairs
        self.inverse_map = inverse

    @classmethod
    def identity(cls, m: int, n: int) -> "Theta":
        return cls(m, n, {(i, j): (i, j) for i in range(1, m + 1)
                          for j in range(1, n + 1)})

    @classmethod
    def from_quadruples(cls, m: int, n: int,
                        quads: Iterable[Sequence[int]]) -> "Theta":
        """Build from ``[i, j, i', j']`` rows, the serialized form."""
        mapping = {}
        for q in quads:
            if len(q) != 4:
                raise ValidationError(f"theta row {q!r} is not a quadruple")
            if any(not isinstance(v, int) or isinstance(v, bool) for v in q):
                raise ValidationError(
                    f"theta row {q!r} has a non-integer entry")
            key = (q[0], q[1])
            if key in mapping:
                raise ValidationError(f"theta maps ({q[0]},{q[1]}) twice")
            mapping[key] = (q[2], q[3])
        return cls(m, n, mapping)

    def to_quadruples(self) -> list[list[int]]:
        return [[i, j, i2, j2] for (i, j), (i2, j2) in sorted(self.map.items())]

    @property
    def is_identity(self) -> bool:
        return all(k == v for k, v in self.map.items())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Theta) and self.map == other.map

    def __hash__(self) -> int:
        return hash(frozenset(self.map.items()))

    def __repr__(self) -> str:
        return f"Theta(m={self.m}, n={self.n}, map={self.map!r})"


def _check_entry(entry: object, m: int, n: int, range_error: str) -> None:
    # a key or value that failed Theta's inline check: refuse it, or
    # pass an int subclass
    if not isinstance(entry, tuple) or len(entry) != 2:
        raise ValidationError(f"theta entry {entry!r} is not a pair")
    for label in entry:
        if not isinstance(label, int) or isinstance(label, bool):
            raise ValidationError(f"theta label {label!r} is not an integer")
    if not (0 < entry[0] <= m and 0 < entry[1] <= n):
        raise ValidationError(range_error)


# -- single-letter moves ----------------------------------------------------
#
# Four directional primitives.  Names say which family's letter moves and
# in which direction through the other family's block.

def commute_s_left(theta: Theta, i: int, t_word: Word) -> tuple[Word, int]:
    """``S_i T_w  ->  T_{w'} S_{i'}``; returns ``(w', i')``."""
    out = []
    carry = i
    for j in t_word:
        carry, j2 = theta.map[(carry, j)]
        out.append(j2)
    return tuple(out), carry


def commute_t_left(theta: Theta, s_word: Word, j: int) -> tuple[int, Word]:
    """``S_u T_j  ->  T_{j'} S_{u'}``; returns ``(j', u')``."""
    out_rev = []
    carry = j
    for i in reversed(s_word):
        i2, carry = theta.map[(i, carry)]
        out_rev.append(i2)
    return carry, tuple(reversed(out_rev))


def commute_t_right(theta: Theta, s_word: Word, j: int) -> tuple[Word, int]:
    """``T_j S_u  ->  S_{u'} T_{j'}``; returns ``(u', j')``."""
    inv = theta.inverse_map
    out = []
    carry = j
    for i in s_word:
        i2, carry = inv[(i, carry)]
        out.append(i2)
    return tuple(out), carry


def commute_s_right(theta: Theta, t_word: Word, i: int) -> tuple[int, Word]:
    """``T_w S_i  ->  S_{i'} T_{w'}``; returns ``(i', w')``."""
    inv = theta.inverse_map
    out_rev = []
    carry = i
    for j in reversed(t_word):
        carry, j2 = inv[(carry, j)]
        out_rev.append(j2)
    return carry, tuple(reversed(out_rev))


# -- block moves and normal forms -------------------------------------------

def _check_letter(theta: Theta, kind: str, index: int) -> None:
    if kind == "s":
        if not 1 <= index <= theta.m:
            raise ValidationError(f"S-letter {index} outside 1..{theta.m}")
    elif kind == "t":
        if not 1 <= index <= theta.n:
            raise ValidationError(f"T-letter {index} outside 1..{theta.n}")
    else:
        raise ValidationError(f"unknown letter family {kind!r}")


def normal_form_parts(theta: Theta,
                      word: Iterable[Letter]) -> tuple[Word, Word]:
    """Rewrite a mixed product into its T-outside parts ``(w, u)``.

    The product of ``word`` read left to right equals ``T_w S_u``.
    Single left-to-right pass: S-letters pile up in a pending block and
    each T-letter commutes leftward through that block.
    """
    t_out: list[int] = []
    s_block: Word = ()
    for kind, index in word:
        _check_letter(theta, kind, index)
        if kind == "s":
            s_block = s_block + (index,)
        else:
            j2, s_block = commute_t_left(theta, s_block, index)
            t_out.append(j2)
    return tuple(t_out), s_block


def from_parts(t_word: Word, s_word: Word) -> MixedWord:
    """Tag plain T- and S-words back into a mixed word ``T_w S_u``."""
    return tuple(("t", j) for j in t_word) + tuple(("s", i) for i in s_word)


def normalize(theta: Theta, word: Iterable[Letter]) -> MixedWord:
    """Normal form of a mixed word: all T-letters first, then all S-letters.

    Preserves the number of letters of each family and is idempotent.
    """
    w, u = normal_form_parts(theta, word)
    return from_parts(w, u)


def denormalize(theta: Theta, t_word: Word, s_word: Word) -> tuple[Word, Word]:
    """Convert T-outside to S-outside: ``T_w S_u = S_{u'} T_{w'}``.

    Returns ``(u', w')``.  Round-tripping through
    :func:`s_outside_to_t_outside` reproduces the input exactly, since
    each letter move is invertible.
    """
    s_out = []
    t_block = tuple(t_word)
    for i in s_word:
        i2, t_block = commute_s_right(theta, t_block, i)
        s_out.append(i2)
    return tuple(s_out), t_block


def s_outside_to_t_outside(theta: Theta, s_word: Word,
                           t_word: Word) -> tuple[Word, Word]:
    """Convert S-outside to T-outside: ``S_u T_w = T_{w'} S_{u'}``.

    Returns ``(w', u')``.
    """
    out_rev = []
    w = tuple(t_word)
    for i in reversed(s_word):
        w, i2 = commute_s_left(theta, i, w)
        out_rev.append(i2)
    return w, tuple(reversed(out_rev))


def theta_ext(theta: Theta, k: int, l: int,
              budget: int = 10**6) -> dict:
    """Extension of the commutation rule to words: ``S_u T_w = T_{w'} S_{u'}``.

    Returns a dict mapping ``(u, w)`` to ``(u', w')`` over all
    ``|u| = k``, ``|w| = l``; the table is a bijection of
    ``[m]^k x [n]^l`` since each entry is invertible letter move by
    letter move.  Raises :class:`ResourceExceeded` when the table would
    exceed ``budget`` entries.
    """
    if k < 0 or l < 0:
        raise ValidationError("word lengths must be nonnegative")
    size = (theta.m ** k) * (theta.n ** l)
    if size > budget:
        raise ResourceExceeded(
            f"theta extension table would hold {size} entries (budget {budget})"
        )
    table = {}
    for u in _cartesian(range(1, theta.m + 1), repeat=k):
        for w in _cartesian(range(1, theta.n + 1), repeat=l):
            w2, u2 = s_outside_to_t_outside(theta, u, w)
            table[(u, w)] = (u2, w2)
    return table
