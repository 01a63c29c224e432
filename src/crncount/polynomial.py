"""Exact sparse multivariate polynomials over sign-annotated indeterminates.

Indeterminates are concentrations, reaction rate constants, or abstract
kinetic partial derivatives; each carries a declared sign (+1, -1, or 0
for "strict sign exists but unknown").  Coefficients are arbitrary
precision integers, monomials are kept in a fixed canonical order, and
all operations are pure, so polynomials are safe to share concurrently.
"""

from __future__ import annotations

from math import gcd
from operator import itemgetter
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

CONCENTRATION = 0
RATE_CONSTANT = 1
KINETIC_PARTIAL = 2

SIGN_UNKNOWN = 0

DEFAULT_MAX_DETERMINANT_DIM = 16


class DeterminantSizeError(ValueError):
    """Matrix dimension exceeds the configured expansion cap."""


class Indeterminate(tuple):
    """A single symbol: kind, identifying key, declared sign, display name.

    The symbol is the immutable tuple (kind, key, sign), so it hashes,
    compares and sorts as that tuple, in C; the display ``name`` is not
    part of its identity.
    The total order (kind, then key) fixes the canonical monomial form:
    concentrations come first, then rate constants, then kinetic partials.
    """

    kind = property(itemgetter(0))
    key = property(itemgetter(1))
    sign = property(itemgetter(2))

    def __new__(cls, kind: int, key: tuple, sign: int = 1, name: str = ""):
        self = tuple.__new__(cls, (kind, key, sign))
        object.__setattr__(self, "name", name)
        return self

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to Indeterminate.{attr}")

    def __getnewargs__(self):
        return (*self, self.name)

    def __repr__(self):
        return self.name or f"Indeterminate({self.kind}, {self.key})"


def concentration(index: int, name: str) -> Indeterminate:
    return Indeterminate(CONCENTRATION, (index,), 1, f"c[{name}]")


def rate_constant(reaction_label: str) -> Indeterminate:
    return Indeterminate(RATE_CONSTANT, (reaction_label,), 1, f"k[{reaction_label}]")


def kinetic_partial(reaction_label: str, species_index: int, species_name: str, sign: int) -> Indeterminate:
    if sign not in (-1, 0, 1):
        raise ValueError(f"declared sign must be -1, 0, or +1, got {sign}")
    return Indeterminate(KINETIC_PARTIAL, (reaction_label, species_index), sign, f"K[{reaction_label};{species_name}]")


# A monomial is a tuple of (indeterminate, exponent) pairs, sorted by
# indeterminate, exponents >= 1.  The empty tuple is the monomial 1.
Monomial = Tuple[Tuple[Indeterminate, int], ...]

ONE: Monomial = ()


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        xa, ea = a[i]
        xb, eb = b[j]
        if xa == xb:
            out.append((xa, ea + eb))
            i += 1
            j += 1
        elif xa < xb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True if monomial a divides monomial b."""
    exps = dict(b)
    for x, e in a:
        if exps.get(x, 0) < e:
            return False
    return True


def mono_div(b: Monomial, a: Monomial) -> Monomial:
    """b / a, assuming a divides b."""
    exps = dict(b)
    for x, e in a:
        exps[x] -= e
    return tuple(sorted((x, e) for x, e in exps.items() if e > 0))


def mono_gcd(a: Monomial, b: Monomial) -> Monomial:
    eb = dict(b)
    return tuple((x, min(e, eb[x])) for x, e in a if x in eb and min(e, eb[x]) > 0)


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def mono_format(m: Monomial) -> str:
    if not m:
        return "1"
    return "*".join(x.name if e == 1 else f"{x.name}^{e}" for x, e in m)


class PackedTerms:
    """A polynomial's terms as packed exponent vectors (Monagan & Pearce, CASC 2007).

    Each monomial is one int with a bit field per indeterminate, laid out
    in canonical order and wide enough for its largest exponent, so a
    monomial product is one integer addition.  ``coefficients`` maps each
    packed monomial to its nonzero coefficient.  For a packed term m,
    ``m & unknown_mask`` is nonzero when m has an unknown-sign factor,
    ``(m & parity_mask).bit_count()`` is odd when m is negative, and
    ``m & concentration_mask`` is m's concentration part.  ``decode`` gives
    its tuple monomial, sharing one ``(x, e)`` pair per field and exponent
    (a fresh pair per term would raise peak memory).  ``single_quotient``
    divides packed terms without decoding them.
    """

    __slots__ = ("coefficients", "_shifts", "_field_at", "_field_starts", "unknown_mask", "parity_mask",
                 "concentration_mask")

    def __init__(self, fields: Sequence[Tuple[Indeterminate, int, int]]):
        """``fields`` lists (indeterminate, shift, field of ones) in canonical order."""
        self.coefficients: Dict[int, int] = {}
        self._shifts = {x: shift for x, shift, _ in fields}
        # The field of each bit: (indeterminate, shift, ones, shared pairs).
        self._field_at = [field for x, shift, ones in fields for field in [(x, shift, ones, {})] * ones.bit_length()]
        # The lowest bit of every field but the first.
        self._field_starts = sum(1 << shift for _, shift, _ in fields[1:])
        self.unknown_mask = self.parity_mask = self.concentration_mask = 0
        for x, shift, ones in fields:
            if x.sign == SIGN_UNKNOWN:
                self.unknown_mask |= ones << shift
            elif x.sign < 0:
                self.parity_mask |= 1 << shift  # the exponent's low bit
            if x.kind == CONCENTRATION:
                self.concentration_mask |= ones << shift

    def encode(self, m: Monomial) -> int:
        shifts = self._shifts
        packed = 0
        for x, e in m:  # a plain loop: sum() over a generator costs twice as much
            packed += e << shifts[x]
        return packed

    def decode(self, packed: int) -> Monomial:
        """The tuple monomial, from the set fields only, lowest first."""
        mono = []
        field_at = self._field_at
        while packed:
            x, shift, ones, pairs = field_at[(packed & -packed).bit_length() - 1]
            e = (packed >> shift) & ones
            mono.append(pairs.setdefault(e, (x, e)))
            packed ^= e << shift
        return tuple(mono)

    def single_quotient(self, a: int, p: int) -> int:
        """a / p, packed, when p divides a and the quotient is a power of
        one indeterminate; else 0.

        p divides a when d = a - p >= 0 and no field of p exceeds a's, so
        adding d back to p carries into no field's lowest bit: d ^ a ^ p,
        the carries of p + d, misses every field start.
        """
        d = a - p
        if d <= 0 or (d ^ a ^ p) & self._field_starts:
            return 0
        _, shift, ones, _ = self._field_at[(d & -d).bit_length() - 1]
        return d if d >> shift <= ones else 0


class Polynomial:
    """Immutable sparse polynomial: map from canonical monomial to nonzero int.

    A polynomial holds tuple-monomial ``terms``, or ``packed`` terms, or
    both: each form is built from the other on first access.
    """

    __slots__ = ("_terms", "_packed")

    def __init__(self, terms: Optional[Mapping[Monomial, int]] = None):
        self._terms: Optional[Dict[Monomial, int]] = {m: c for m, c in (terms or {}).items() if c != 0}
        self._packed: Optional[PackedTerms] = None

    @staticmethod
    def _of(terms: Optional[Dict[Monomial, int]], packed: Optional[PackedTerms] = None) -> "Polynomial":
        p = Polynomial.__new__(Polynomial)
        p._terms = terms
        p._packed = packed
        return p

    @property
    def terms(self) -> Dict[Monomial, int]:
        """Canonical monomial -> coefficient."""
        if self._terms is None:
            decode = self._packed.decode
            self._terms = {decode(m): c for m, c in self._packed.coefficients.items()}
        return self._terms

    @property
    def packed(self) -> PackedTerms:
        """The terms as packed exponent vectors."""
        if self._packed is None:
            # The fields of a 1x1 matrix fit this polynomial's own exponents.
            packed = PackedTerms(_exponent_fields([[self]]))
            packed.coefficients = {packed.encode(m): c for m, c in self._terms.items()}
            self._packed = packed
        return self._packed

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def constant(c: int) -> "Polynomial":
        return Polynomial({ONE: c} if c else {})

    @staticmethod
    def variable(x: Indeterminate) -> "Polynomial":
        return Polynomial({((x, 1),): 1})

    @staticmethod
    def term(coeff: int, mono: Monomial) -> "Polynomial":
        return Polynomial({mono: coeff} if coeff else {})

    @property
    def is_zero(self) -> bool:
        return not len(self)

    def __len__(self) -> int:
        return len(self._packed.coefficients if self._terms is None else self._terms)

    def __iter__(self) -> Iterator[Tuple[Monomial, int]]:
        return iter(self.terms.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial._of(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return Polynomial._of({m: c * other for m, c in self.terms.items()} if other else {})
        if not isinstance(other, Polynomial):
            return NotImplemented
        out: Dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial._of(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative exponent")
        result = Polynomial.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def indeterminates(self) -> List[Indeterminate]:
        seen = set()
        for m in self.terms:
            for x, _ in m:
                seen.add(x)
        return sorted(seen)

    def sorted_terms(self) -> List[Tuple[Monomial, int]]:
        return sorted(self.terms.items(), key=lambda item: item[0])

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            parts.append(f"{c}" if not m else f"{c}*{mono_format(m)}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def differentiate(p: Polynomial, x: Indeterminate) -> Polynomial:
    """Formal partial derivative of p with respect to x."""
    out: Dict[Monomial, int] = {}
    for m, c in p.terms.items():
        for i, (xi, e) in enumerate(m):
            if xi == x:
                dm = m[:i] + ((xi, e - 1),) + m[i + 1 :] if e > 1 else m[:i] + m[i + 1 :]
                s = out.get(dm, 0) + c * e
                if s:
                    out[dm] = s
                else:
                    out.pop(dm, None)
                break
    return Polynomial(out)


def substitute(p: Polynomial, assignments: Mapping[Indeterminate, object]) -> Polynomial:
    """Exactly replace indeterminates by integers or polynomials."""
    subs = {x: (Polynomial.constant(v) if isinstance(v, int) else v) for x, v in assignments.items()}
    result = Polynomial.zero()
    for m, c in p.terms.items():
        factor = Polynomial.constant(c)
        for x, e in m:
            if x in subs:
                factor = factor * (subs[x] ** e)
            else:
                factor = factor * Polynomial.term(1, ((x, e),))
        result = result + factor
    return result


def evaluate(p: Polynomial, values: Mapping[Indeterminate, float]) -> float:
    """Numerically evaluate p; every indeterminate present must be bound."""
    total = 0.0
    for m, c in p.terms.items():
        v = float(c)
        for x, e in m:
            v *= values[x] ** e
        total += v
    return total


def determinant_expand(matrix: Sequence[Sequence[Polynomial]], max_dim: int = DEFAULT_MAX_DETERMINANT_DIM) -> Polynomial:
    """Fully expanded determinant of a square polynomial matrix.

    Laplace expansion by dynamic programming over column subsets, exact
    integer arithmetic throughout, on packed exponent vectors
    (``PackedTerms``), so a monomial product is one integer addition.
    The result stays packed: ``len`` reads it as is, and ``.terms``
    decodes it on first access.

    Rows are taken in ``_frontier_order``.  Level k of the one-sided DP
    holds one minor per set of k columns that the first k ordered rows can
    fill.  The set lies in the t columns those rows touch, and it holds
    each of them that no later row touches: a minor that misses one could
    never be completed, so it is not formed.  The other touched columns
    form the front, and the set leaves out t - k of them, so a level holds
    at most C(front, t - k) minors.  The frontier order keeps t - k small,
    as frontal elimination orderings keep their front small: on the
    Table-1 ring family at n = 11-19 no level holds more than 24 minors.
    Each minor is popped as it is consumed, so a DP holds about one level
    at a time.

    The one-sided DP forms its largest minors last, at n - 1 rows.  Where
    it narrows, the expansion meets in the middle instead.
    ``_split_level`` reads the number of minors at each level of the
    one-sided DP, which the rows' supports alone fix, and takes the level
    h nearest the middle that holds no more minors than an earlier level
    and fewer than a later one; where no level narrows, it keeps the
    one-sided DP.  The split is a generalized Laplace expansion along the
    first h ordered rows: the same DP runs over the first h rows (top) and
    over the other n - h (bottom), whose minors must hold every column no
    top row touches, and

        det = sgn(order) * sum over S of (-1)^#{a in S, b not in S: a > b}
              * top[S] * bottom[complement of S],

    where (-1)^#{...} = (-1)^(sum(S) - h(h-1)/2), sum(S) being the sum of
    the column indices in S.

    Both halves and the join drop the products that repeat a rank-one
    block.  A block is a set X of non-concentration indeterminates such
    that (a) every term holds at most one symbol of X, to the first power,
    and (b) the nonzero rows of the X-part of the matrix are integer
    multiples of one row.  Then J = J0 + u z^T with J0 and the integer
    vector u free of X, and by the matrix determinant lemma, det(A + u z^T)
    = det A + z^T adj(A) u, every minor of J has X-degree at most 1 (Horn &
    Johnson, Matrix Analysis, 2nd ed., 2013).  A product whose two factors
    each hold a symbol of X is a term of X-degree 2, and such products make
    up all of a minor's X-degree-2 terms, so they sum to zero and are
    dropped unsummed.  In a mass-action Jacobian the blocks are the rate
    constants of the groups of reactions with parallel reaction vectors.
    ``_rank_one_blocks`` finds them in the matrix and checks (a) and (b) on
    every term before any product is dropped.  Each block gets a two-bit
    counter above the exponent fields, 1 on the terms that hold one of its
    symbols, and a product whose counter reaches 2 is dropped; the join
    multiplies only the term groups that share no block and writes the
    monomials without counters.  The one-sided DP lets those products
    cancel: on the census-workload matrices it is kept for (n <= 7),
    finding the blocks cost more than dropping saved.

    Raises:
        ValueError: on a non-square or empty matrix.
        DeterminantSizeError: when the dimension exceeds ``max_dim``.
    """
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square with n >= 1")
    if n > max_dim:
        raise DeterminantSizeError(f"matrix dimension {n} exceeds expansion cap {max_dim}")

    fields = _exponent_fields(matrix)
    packed = PackedTerms(fields)
    encode = packed.encode
    # Each row's nonzero entries, as (column bit, packed term map).
    rows = [[(1 << j, {encode(m): c for m, c in terms.items()})
             for j, terms in enumerate([entry.terms for entry in row]) if terms]
            for row in matrix]
    supports = [sum(bit for bit, _ in row) for row in rows]
    order = _frontier_order(supports)
    rows = [rows[i] for i in order]
    full = (1 << n) - 1
    # closed[k]: the columns that no row after the k-th ordered one touches.
    closed = [full] * n
    for k in range(n - 2, -1, -1):
        closed[k] = closed[k + 1] & ~supports[order[k + 1]]
    h = _split_level(rows, closed)
    if h == n:
        packed.coefficients = _minors(rows, closed, _permutation_sign(order)).get(full, {})
        return Polynomial._of(None, packed)

    width = sum(ones.bit_length() for _, _, ones in fields)
    over = 0  # the high bit of every block's counter
    for b, places in enumerate(_rank_one_blocks(packed, rows)):
        counter = 1 << (width + 2 * b)
        over |= counter << 1
        for entry, m in places:
            entry[m | counter] = entry.pop(m)
    top = _minors(rows[:h], closed, _permutation_sign(order), over)
    touched = 0  # the columns of the top rows
    for i in order[:h]:
        touched |= supports[i]
    bottom = _minors(rows[h:], [need & ~touched for need in closed[h:]], 1, over)
    odd = sum(1 << j for j in range(1, n, 2))
    terms: Dict[int, int] = {}
    for mask, upper in top.items():
        lower = bottom.get(full ^ mask)
        if lower:
            # The shuffle sign above: sum(S) is odd when S holds an odd
            # number of odd columns.
            sign = -1 if ((mask & odd).bit_count() + h * (h - 1) // 2) & 1 else 1
            _join(terms, upper, lower, sign, width)
    packed.coefficients = terms
    return Polynomial._of(None, packed)


def _minors(rows, closed: Sequence[int], sign: int, over: int = 0) -> Dict[int, Dict[int, int]]:
    """The last level of the subset DP over ``rows``: column mask -> packed
    term map of the minor of those rows and columns, times ``sign``.

    A mask at level k must hold ``closed[k]``; a product that sets a bit
    of ``over`` is dropped.
    """
    level: Dict[int, Dict[int, int]] = {0: {0: sign}}
    for k, (row, need) in enumerate(zip(rows, closed)):
        nxt: Dict[int, Dict[int, int]] = {}
        while level:
            mask, minor = level.popitem()
            for bit, entry in row:
                if mask & bit or (mask | bit) & need != need:
                    continue
                acc = nxt.get(mask | bit)
                if acc is None:
                    acc = nxt[mask | bit] = {}
                # Choosing this column at row k adds one inversion per
                # already chosen column above it; mask has k chosen columns.
                sign = -1 if (k + (mask & (bit - 1)).bit_count()) & 1 else 1
                for m1, c1 in entry.items():
                    c1s = c1 * sign
                    for m2, c2 in minor.items():
                        m = m1 + m2
                        if over and m & over:
                            continue
                        s = acc.get(m, 0) + c1s * c2
                        if s:
                            acc[m] = s
                        else:
                            del acc[m]
        level = {mask: terms for mask, terms in nxt.items() if terms}
    return level


def _join(acc: Dict[int, int], upper: Dict[int, int], lower: Dict[int, int], sign: int, width: int) -> None:
    """Add sign * upper * lower to ``acc``, without block counters.

    Each side's terms are grouped by their counters (the bits from
    ``width`` up); only groups that share no block are multiplied.
    """
    low = (1 << width) - 1

    def by_blocks(minor: Dict[int, int], factor: int) -> Dict[int, List[Tuple[int, int]]]:
        groups: Dict[int, List[Tuple[int, int]]] = {}
        for m, c in minor.items():
            groups.setdefault(m >> width, []).append((m & low, c * factor))
        return groups

    lower_groups = by_blocks(lower, 1)
    for blocks_a, group_a in by_blocks(upper, sign).items():
        for blocks_b, group_b in lower_groups.items():
            if blocks_a & blocks_b:
                continue
            for m1, c1 in group_a:
                for m2, c2 in group_b:
                    m = m1 + m2
                    s = acc.get(m, 0) + c1 * c2
                    if s:
                        acc[m] = s
                    else:
                        del acc[m]


def _split_level(rows, closed: Sequence[int]) -> int:
    """How many ordered rows the top half takes; n keeps the one-sided DP.

    A split pays off only where the one-sided DP narrows: at a level that
    holds no more minors than some earlier level and fewer than some later
    one, the split never builds the wider levels after it.  Among such
    levels, take the one nearest the middle, whose two halves form the
    smallest minors, then the narrowest (fewest joins), then the later
    one (a shorter bottom half).  Each half keeps at least two rows: h = 1
    and h = n - 1 are the one-sided DP read from either end.  The counts
    depend only on the rows' supports (``_level_counts``); when they rise
    at every level up to n - 2, none of those levels narrows, and the last
    two are not counted.
    """
    n = len(rows)
    if n < 4:
        return n
    counts: List[int] = []
    for count in _level_counts(rows, closed):
        counts.append(count)
        if len(counts) == n - 2 and all(a < b for a, b in zip(counts, counts[1:])):
            return n
    narrow = [h for h in range(2, n - 1) if counts[h - 1] <= max(counts[: h - 1]) and counts[h - 1] < max(counts[h:])]
    return min(narrow, key=lambda h: (abs(2 * h - n), counts[h - 1], -h), default=n)


def _level_counts(rows, closed: Sequence[int]) -> Iterator[int]:
    """How many minors each level of the one-sided DP holds, level by
    level, from the rows' nonzero columns alone: every mask that the first
    k rows can fill, one column per row, and that holds ``closed[k - 1]``."""
    level = {0}
    for row, need in zip(rows, closed):
        level = {mask | bit for mask in level for bit, _ in row if not mask & bit and (mask | bit) & need == need}
        yield len(level)


def _rank_one_blocks(packed: PackedTerms, rows) -> List[List[Tuple[Dict[int, int], int]]]:
    """The rank-one blocks of a packed matrix, each as the (entry, packed
    monomial) places of its terms; blocks with one nonzero row are left
    out, since no product holds two of their symbols.

    A symbol x qualifies when every term holding it holds no other
    non-concentration indeterminate and holds x to the first power, which
    is (a).  Its profile at column j and monomial m is the vector of the
    coefficients of m in column j, over the rows; (b) holds for a set of
    such symbols when all their profiles are integer multiples of one
    primitive vector, their direction.  The symbols that share a direction
    form one block.
    """
    keep = ~packed.concentration_mask
    starts = packed._field_starts | 1  # the lowest bit of every field
    # (column bit, monomial) -> [(row, coefficient, entry), ...]
    profiles: Dict[Tuple[int, int], List[Tuple[int, int, Dict[int, int]]]] = {}
    mixed = 0  # every non-concentration bit of a term that is not one symbol to the first power
    for i, row in enumerate(rows):
        for bit, entry in row:
            for m, c in entry.items():
                x = m & keep
                if x & (x - 1) or not x & starts:
                    mixed |= x
                elif (bit, m) in profiles:
                    profiles[bit, m].append((i, c, entry))
                else:
                    profiles[bit, m] = [(i, c, entry)]
    direction: Dict[int, Optional[tuple]] = {}
    for (_, m), profile in profiles.items():
        d = None
        if len(profile) > 1:
            g = gcd(*[c for _, c, _ in profile])
            if profile[0][1] < 0:
                g = -g
            d = tuple([(i, c // g) for i, c, _ in profile])
        if direction.setdefault(m & keep, d) != d:
            direction[m & keep] = None
    field_at = packed._field_at
    blocks: Dict[tuple, List[Tuple[Dict[int, int], int]]] = {}
    for (_, m), profile in profiles.items():
        x = m & keep
        d = direction[x]
        _, shift, ones, _ = field_at[x.bit_length() - 1]
        if d is not None and not (ones << shift) & mixed:
            blocks.setdefault(d, []).extend((entry, m) for _, _, entry in profile)
    return list(blocks.values())


def _frontier_order(supports: Sequence[int]) -> List[int]:
    """Row order of the subset DP, given each row's nonzero columns as a bit mask.

    Each step takes the row whose nonzero columns add the fewest columns
    not yet touched, then the row with the fewest nonzeros, then the lowest
    index.  Level k of the DP leaves out t - k of the t columns its first
    k rows touch, so keeping t small keeps every level small.
    """
    left = list(range(len(supports)))
    order: List[int] = []
    touched = 0
    while left:
        i = min(left, key=lambda r: ((supports[r] & ~touched).bit_count(), supports[r].bit_count(), r))
        left.remove(i)
        order.append(i)
        touched |= supports[i]
    return order


def _exponent_fields(matrix: Sequence[Sequence[Polynomial]]) -> List[Tuple[Indeterminate, int, int]]:
    """(indeterminate, shift, field of ones) of each bit field, in canonical order.

    A product of one entry per row raises x to at most the sum over rows
    of x's largest exponent in that row; the field is that bound's bit
    length wide, so no exponent in the expansion carries into the next
    field.
    """
    bound: Dict[Indeterminate, int] = {}
    for row in matrix:
        row_max: Dict[Indeterminate, int] = {}
        for entry in row:
            for m in entry.terms:
                for x, e in m:
                    if e > row_max.get(x, 0):
                        row_max[x] = e
        for x, e in row_max.items():
            bound[x] = bound.get(x, 0) + e
    fields = []
    shift = 0
    for x in sorted(bound):
        width = bound[x].bit_length()
        fields.append((x, shift, (1 << width) - 1))
        shift += width
    return fields


def _permutation_sign(perm: Sequence[int]) -> int:
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
