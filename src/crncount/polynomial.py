"""Exact sparse multivariate polynomials over sign-annotated indeterminates.

Indeterminates are concentrations, reaction rate constants, or abstract
kinetic partial derivatives; each carries a declared sign (+1, -1, or 0
for "strict sign exists but unknown").  Coefficients are arbitrary
precision integers, monomials are kept in a fixed canonical order, and
all operations are pure, so polynomials are safe to share concurrently.
"""

from __future__ import annotations

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
        return sum(e << shifts[x] for x, e in m)

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

    Level k holds one minor per set of k columns that the first k ordered
    rows can fill.  The set lies in the t columns those rows touch, and it
    holds each of them that no later row touches: a minor that misses one
    could never be completed, so it is not formed.  The other touched
    columns form the front, and the set leaves out t - k of them, so a
    level holds at most C(front, t - k) minors.  ``_frontier_order`` keeps
    t - k small, as frontal elimination orderings keep their front small:
    on the Table-1 ring family at n = 11-19 no level holds more than 24
    minors.  Each minor is popped as it is consumed, so the DP holds about
    one level at a time.

    Raises:
        ValueError: on a non-square or empty matrix.
        DeterminantSizeError: when the dimension exceeds ``max_dim``.
    """
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square with n >= 1")
    if n > max_dim:
        raise DeterminantSizeError(f"matrix dimension {n} exceeds expansion cap {max_dim}")

    packed = PackedTerms(_exponent_fields(matrix))
    row_terms = [[{packed.encode(m): c for m, c in entry.terms.items()} for entry in row] for row in matrix]
    supports = [sum(1 << j for j, entry in enumerate(row) if entry) for row in row_terms]
    order = _frontier_order(supports)
    # closed[k]: the columns that no row after the k-th ordered one touches.
    closed = [(1 << n) - 1] * n
    for k in range(n - 2, -1, -1):
        closed[k] = closed[k + 1] & ~supports[order[k + 1]]

    # level[mask] = packed term map of the minor using the first k ordered
    # rows and the columns in mask, times the sign of the row order.
    level: Dict[int, Dict[int, int]] = {0: {0: _permutation_sign(order)}}
    for k, i in enumerate(order):
        need = closed[k]
        nxt: Dict[int, Dict[int, int]] = {}
        while level:
            mask, minor = level.popitem()
            below = 0
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    below += 1
                    continue
                entry = row_terms[i][j]
                if not entry or (mask | bit) & need != need:
                    continue
                # Choosing column j at row k adds one inversion per already
                # chosen column above j; mask has k chosen columns in total.
                sign = -1 if (k + below) & 1 else 1
                acc = nxt.setdefault(mask | bit, {})
                for m1, c1 in entry.items():
                    c1s = c1 * sign
                    for m2, c2 in minor.items():
                        m = m1 + m2
                        s = acc.get(m, 0) + c1s * c2
                        if s:
                            acc[m] = s
                        else:
                            del acc[m]
        level = {mask: terms for mask, terms in nxt.items() if terms}
    packed.coefficients = level.get((1 << n) - 1, {})
    return Polynomial._of(None, packed)


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
