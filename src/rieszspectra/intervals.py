"""Exact interval-set arithmetic on [0,1) and the fiber-counting partitions.

An endpoint is an exact Q-linear form: a rational part plus rational
multiples of generators, finite nonzero binary values each made at its own
precision.  The paper's endpoints 1, a_1, ..., b_L are rationally
independent, and every value the constructions derive from them ({N*a},
b - a, level widths, spectrum densities) is such a form, so arithmetic
never rounds and values equal by construction compare equal structurally.
A generator is a binary fraction, so every form has an exact rational
value (Endpoint.exact()), and every comparison and floor returns what the
exact value decides; mpf is used only to make and print generators.  A
comparison or floor of an irrational form that lands within the ambiguity
threshold of its generators raises AmbiguousEndpoint instead of guessing.

Each comparison and floor is filtered: a float64 enclosure of the form (a
value and a proved radius, cached on the endpoint) decides it first by the
sign rule or the floor rule below, the package's only float decisions, and
only the rest fall back to exact Fraction arithmetic (Shewchuk, Discrete
Comput. Geom. 18, 1997).  A rule answers only where the exact path answers
the same, so results and AmbiguousEndpoint are unchanged.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
from mpmath import mpf
from mpmath.libmp import fzero, from_int, mpf_add, mpf_div, mpf_mul_int, prec_to_dps, to_str

from .errors import AmbiguousEndpoint, InvalidInput
from .precision import DEFAULT_PRECISION_BITS, ROUND, ambiguity_threshold, make_generator


_EPS = sys.float_info.epsilon  # 2^-52, twice the unit roundoff u of float64
_TINY = sys.float_info.min  # 2^-1022, the least normal float64


def _enclose(rational: Fraction, irr: dict) -> tuple:
    """(v, e, t) for the form rational + sum of c_g * g; see
    Endpoint._enclosure."""
    bits = min((g.bits for g in irr), default=DEFAULT_PRECISION_BITS)
    t = math.ldexp(1.0, -min(bits // 2, 1074))  # 2^-(bits//2), never below it
    try:
        v = rational.numerator / rational.denominator  # correctly rounded
        a = abs(v)
        for g, c in irr.items():
            cf, gf = c.numerator / c.denominator, g._float
            if abs(cf) < _TINY or abs(gf) < _TINY:
                break  # underflow: the error would be scaled by the other factor
            term = cf * gf
            v += term
            a += abs(term)
        else:
            e = (len(irr) + 3) * _EPS * a + _TINY
            if e < math.inf and abs(v) < math.inf:
                return v, e, t
    except OverflowError:
        pass
    return 0.0, math.inf, t


def _floor_rule(v, r, t):
    """(f, decided), elementwise on floats or numpy arrays: for an exact x
    with |x - v| <= r, r >= 5u|v| (u = 2^-53), and t >= 0, decided puts x
    in (f + t, f + 1 - t), so the exact floor of x guarded at t is f and
    does not raise.  With m = 2(r + t), decided is (v - m) // 1.0 ==
    (v + m) // 1.0 = f.  Sums round with relative error at most u and
    doubling is exact, so x >= v - r >= f + (1 - u)m - u|v| - r >= f +
    (1 - 4u)r - u|v| + 2(1 - 2u)t > f + t, and likewise x < f + 1 - t.  An
    infinite radius or an overflowing sum makes a quotient NaN, which
    decides nothing.
    """
    m = 2.0 * (r + t)
    f = (v - m) // 1.0
    return f, f == (v + m) // 1.0


def _sign_rule(d, r, t):
    """Whether |d| > 2(r + t), elementwise on floats or numpy arrays: for
    floats v and w within e and f of exact X and Y, d = v - w and r = e + f
    rounded, and t >= 0, it gives X - Y the sign of d and |X - Y| > t.
    Each rounding is within a factor 1 + u (u = 2^-53), so |v - w| >
    2(1 - 3u)(e + f + t) and |X - Y| >= |v - w| - e - f > t.
    """
    return abs(d) > 2.0 * (r + t)


def _scaled_fracs(xs: Sequence[Endpoint], N):
    """The array form of (x * N).frac() on enclosures: (w, r, t, decided)
    for the endpoints xs (rows) and a float64 array N of integers below
    2^53 (columns), with t the threshold of x, and, where the floor rule
    decides floor(N x) as Endpoint.floor would, |w - {N x}| <= r.  For x
    with enclosure (v, e, t), p = N*v is within E = N*e + eps*|p| of N*x
    (eps = 2u = 2^-52; e and eps are twice the errors they bound, which
    covers the rounding of E), and E >= 5u|p| as e >= 5u|v|.  Where the
    floor rule decides f on (p, E, t), p lies in [f, f + 1) and w = p - f
    rounds by at most u, so r = E + eps.  An infinite e, or a p that
    overflows, makes E infinite.  Call it under np.errstate(over="ignore",
    invalid="ignore").
    """
    v, e, t = (np.array(col)[:, None] for col in zip(*(x._enclosure() for x in xs)))
    p = N * v
    E = N * e + _EPS * abs(p)
    f, decided = _floor_rule(p, E, t)
    return p - f, E + _EPS, t, decided


def parse_fraction(value, field: str) -> Fraction:
    """Fraction(value), raising InvalidInput naming field when value is not
    a finite rational (a malformed string, 1/0, nan or inf)."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InvalidInput(f"{field}: {value!r} is not a finite rational") from exc


def _json_value(value, kind: type, what: str):
    """value if it is a JSON value of the Python type kind (dict, list or
    int), else InvalidInput naming what it holds."""
    if not isinstance(value, kind) or isinstance(value, bool):
        name = {dict: "object", list: "array", int: "integer"}[kind]
        raise InvalidInput(f"{what} must be a JSON {name}, not {json.dumps(value)[:40]}")
    return value


def _json_field(obj, key: str, what: str, kind: type = None):
    """obj[key] of a parsed JSON artifact, raising InvalidInput naming the
    field when it is missing or, given kind, not a JSON value of that type."""
    try:
        value = obj[key]
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"{what}: missing field {key!r}") from exc
    return value if kind is None else _json_value(value, kind, f"{what} field {key!r}")


def _json_array(obj, key: str, what: str) -> list:
    return _json_field(obj, key, what, list)


def _to_json(value):
    """value.to_json() when it has one, a tuple or list as a list of those,
    anything else as it is.

    Entries of a list that are one object share one JSON value (the N
    levels of a plan are a few objects), so callers must not mutate it.
    """
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, (tuple, list)):
        ids = list(map(id, value))
        memo = {k: _to_json(v) for k, v in dict(zip(ids, value)).items()}
        return list(map(memo.__getitem__, ids))
    return value


class _FieldJson:
    """Mixin for a result dataclass whose report is its fields: to_json()
    maps each field, in field order, to its value's JSON, under the key
    metadata["json"] when the field has one, else under its name."""

    def to_json(self) -> dict:
        return {
            f.metadata.get("json", f.name): _to_json(getattr(self, f.name))
            for f in dataclasses.fields(self)
        }


class Endpoint:
    """A real number rational + sum of c_g * g over its generators g.

    irr maps each generator (a precision.Generator, identified by its
    value) to its nonzero Fraction coefficient, in first-appearance order,
    and is never mutated after construction.  Sums, negations, rational
    rescalings and frac() only add or scale exact coefficients, so nothing
    rounds; two values with equal maps compare by their rational parts
    alone.  An irrational part that is not yet a generator is rounded to
    bits.
    """

    __slots__ = ("rational", "irr", "_enc")

    def __init__(self, rational=0, irrational=None, *, bits=DEFAULT_PRECISION_BITS):
        self.rational = Fraction(rational)
        g = None if irrational is None else make_generator(irrational, bits)
        self.irr = {g: Fraction(1)} if g is not None and g.value else {}
        self._enc = None

    @classmethod
    def _build(cls, rational: Fraction, irr: dict) -> "Endpoint":
        e = cls.__new__(cls)
        e.rational = rational
        e.irr = irr
        e._enc = None
        return e

    # -- conversions --------------------------------------------------

    @classmethod
    def coerce(cls, x) -> "Endpoint":
        if isinstance(x, Endpoint):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        if isinstance(x, float):
            return cls(parse_fraction(x, "endpoint"))
        if isinstance(x, str) or hasattr(x, "_mpf_"):
            return cls(0, x)
        raise TypeError(f"cannot interpret {x!r} as an endpoint")

    def _rounded(self, with_rational: bool) -> tuple:
        """(raw mpf value, bits): the value, or its irrational part, rounded
        at the least bits of its generators (the default for none).  The
        steps are those of mpf arithmetic at that precision: mpf(p)/q,
        then g*c_num/c_den summed from 0 left to right in map order."""
        bits = min((g.bits for g in self.irr), default=DEFAULT_PRECISION_BITS)
        val = fzero
        for g, c in self.irr.items():
            term = mpf_mul_int(g._mpf_, c.numerator, bits, ROUND)
            val = mpf_add(val, mpf_div(term, from_int(c.denominator), bits, ROUND), bits, ROUND)
        if with_rational:
            q = self.rational
            rat = mpf_div(from_int(q.numerator, bits, ROUND), from_int(q.denominator), bits, ROUND)
            val = mpf_add(rat, val, bits, ROUND) if self.irr else rat
        return val, bits

    def mpf(self) -> mpf:
        val, bits = self._rounded(True)
        return mpf(val, prec=bits, rounding=ROUND)

    def decimal(self, *, irrational_only: bool = False) -> str:
        """The value, or its irrational part, as a decimal of the digits its
        generators' bits carry."""
        val, bits = self._rounded(not irrational_only)
        return to_str(val, prec_to_dps(bits), strip_zeros=False)

    def exact(self) -> Fraction:
        """The exact value: rational + sum of c_g * g, each generator g at
        its binary value."""
        val = self.rational
        for g, c in self.irr.items():
            val += c * g.value
        return val

    def __float__(self) -> float:
        return float(self.exact())  # correctly rounded

    def _enclosure(self) -> tuple:
        """(v, e, t): a float64 value v with |v - exact()| <= e, and the
        ambiguity threshold t of the least bits among the generators (the
        default for none) as a float; computed once and cached.

        v sums the k = 1 + len(irr) terms z, float(rational) and
        float(c) * float(g), left to right.  With u = 2^-53 and
        gamma_n = n*u / (1 - n*u), a term carries at most three roundings
        to nearest (c, g, their product; one for the rational), so it lies
        within gamma_3 / (1 - gamma_3) * |z| < 3.01u|z| of its exact value,
        and the recursive sum adds at most gamma_(k-1) * A, A the sum of the
        |z| (Higham, Accuracy and Stability of Numerical Algorithms, 2.2 and
        4.2): |v - exact()| <= (k + 2.02)u * A.  Under gradual underflow a
        sum is exact and a product or the rational conversion adds at most
        2^-1075, k * 2^-1075 in all; a c or g converting below 2^-1022
        would carry its absolute error through the product, so such a form
        takes the fallback.  e = 2(k + 2)u * A + 2^-1022 covers both with a
        factor 2 to spare for the rounding of A and of e, and e >= 5u|v|.
        A form that overflows float64 (OverflowError, an infinite term or
        sum) gets e = inf, and each of its decisions takes the exact path.
        """
        enc = self._enc
        if enc is None:
            enc = self._enc = _enclose(self.rational, self.irr)
        return enc

    def phases(self, ks) -> list[float]:
        """frac(k * x) for every integer k in ks, reduced exactly."""
        x = self.exact()
        p, q = x.numerator, x.denominator
        return [(k * p % q) / q for k in ks]

    @property
    def is_rational(self) -> bool:
        return not self.irr

    # -- comparisons ---------------------------------------------------

    def _cmp(self, other) -> int:
        """The sign of self - other, as _cmp_exact decides it; 0 at once
        for the same object.

        The sign rule decides d = v_s - v_o on the enclosures, with t =
        max(t_s, t_o), first: then the exact difference D has the sign of d
        and |D| > t.  Unequal maps leave a D whose generators are among both
        forms', so its exact threshold is at most t, and _cmp_exact returns
        the same sign without raising.  Otherwise _cmp_exact decides.
        """
        if other is self:
            return 0
        if not isinstance(other, Endpoint):
            other = Endpoint.coerce(other)
        v, e, t = self._enclosure()
        w, f, s = other._enclosure()
        d = v - w
        if _sign_rule(d, e + f, t if t > s else s):
            return 1 if d > 0 else -1
        return self._cmp_exact(other)

    def _cmp_exact(self, other: "Endpoint") -> int:
        """The sign of self - other on the exact values: rational parts alone
        for equal maps, else the exact difference against the threshold."""
        if self.irr == other.irr:
            a, b = self.rational, other.rational
            return (a > b) - (a < b)
        diff = self - other
        d = diff.exact()
        if abs(d) < ambiguity_threshold(diff.irr):
            raise AmbiguousEndpoint(
                f"comparison of {self!r} and {other!r} is below the "
                f"working-precision threshold (|diff| ~ {float(abs(d)):.5g})"
            )
        return (d > 0) - (d < 0)

    def __eq__(self, other):
        try:
            return self._cmp(other) == 0
        except TypeError:
            return NotImplemented

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = Endpoint.coerce(other)
        rat = self.rational + other.rational
        if not other.irr:
            return Endpoint._build(rat, self.irr)
        if not self.irr:
            return Endpoint._build(rat, other.irr)
        irr = dict(self.irr)
        for g, c in other.irr.items():
            c += irr.get(g, 0)
            if c:
                irr[g] = c
            else:
                del irr[g]
        return Endpoint._build(rat, irr)

    __radd__ = __add__

    def __neg__(self):
        return Endpoint._build(-self.rational, {g: -c for g, c in self.irr.items()})

    def __sub__(self, other):
        return self + (-Endpoint.coerce(other))

    def __rsub__(self, other):
        return Endpoint.coerce(other) - self

    def __mul__(self, q):
        q = Fraction(q)
        irr = {g: c * q for g, c in self.irr.items()} if q else {}
        return Endpoint._build(self.rational * q, irr)

    __rmul__ = __mul__

    def floor(self) -> int:
        """floor(x), as _floor_exact decides it: first by the floor rule on
        the enclosure (its e >= 5u|v|) for an irrational form."""
        if self.irr:
            f, decided = _floor_rule(*self._enclosure())
            if decided:
                return int(f)
        return self._floor_exact()

    def _floor_exact(self) -> int:
        if not self.irr:
            return math.floor(self.rational)
        x, t = self.exact(), ambiguity_threshold(self.irr)
        floor, rem = divmod(x.numerator, x.denominator)
        if min(rem, x.denominator - rem) * t.denominator < t.numerator * x.denominator:
            raise AmbiguousEndpoint(
                f"{self!r} is within the working-precision threshold of an integer"
            )
        return floor

    def ceil(self) -> int:
        return -((-self).floor())

    def frac(self) -> "Endpoint":
        """Fractional part, keeping the irrational summands intact."""
        return Endpoint._build(self.rational - self.floor(), self.irr)

    def round_half_up(self) -> int:
        return (self + Fraction(1, 2)).floor()

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        irr = self.decimal(irrational_only=True) if self.irr else None
        return {"rat": f"{self.rational.numerator}/{self.rational.denominator}", "irr": irr}

    @classmethod
    def from_json(cls, obj: dict, *, bits=DEFAULT_PRECISION_BITS) -> "Endpoint":
        obj = _json_value(obj, dict, "endpoint")
        return cls(parse_fraction(obj.get("rat", "0"), "rat"), obj.get("irr"), bits=bits)

    def __repr__(self):
        terms = "".join(f" + {c}*{to_str(g._mpf_, 20)}" for g, c in self.irr.items())
        return f"Endpoint({self.rational}{terms})"


_ZERO = Endpoint(0)


def frac(x):
    """Fractional part x - floor(x) in [0,1); preserves the input kind."""
    if isinstance(x, Endpoint):
        return x.frac()
    if isinstance(x, (int, Fraction)):
        return Fraction(x) - math.floor(Fraction(x))
    if isinstance(x, mpf):
        return Endpoint.coerce(x).frac().mpf()
    if isinstance(x, float):
        if not math.isfinite(x):
            raise InvalidInput("frac requires a finite input")
        return x - math.floor(x)
    raise TypeError(f"unsupported type for frac: {type(x)!r}")


def _ranked(points: Sequence[Endpoint]) -> tuple[list, list]:
    """(cuts, rank): the distinct values of points in increasing order, and
    the index in cuts of each point.  A stable sort by the endpoints' own
    order, so the first listed of equal points is their cut."""
    cuts: list = []
    rank = [0] * len(points)
    for i in sorted(range(len(points)), key=points.__getitem__):
        if not cuts or cuts[-1]._cmp(points[i]) < 0:
            cuts.append(points[i])
        rank[i] = len(cuts) - 1
    return cuts, rank


class IntervalSet:
    """Finite union of half-open intervals [left, right), normalized.

    Normalization sorts the pieces, drops empty ones, and merges adjacent
    or overlapping pieces, so the stored representation is the canonical
    disjoint sorted form.  Only __init__ assigns pieces, so a set never
    changes, and fold_pattern memoizes its patterns on it in _folds (None
    until the first fold, then a dict from N to the pattern as a tuple).
    """

    __slots__ = ("pieces", "_folds")

    def __init__(self, pairs: Iterable = ()):
        cleaned = []
        for left, right in pairs:
            left = Endpoint.coerce(left)
            right = Endpoint.coerce(right)
            c = left._cmp(right)
            if c == 0:
                continue  # [x, x) is empty by convention
            if c > 0:
                raise InvalidInput(f"interval with left > right: [{left!r}, {right!r})")
            cleaned.append((left, right))
        cleaned.sort(key=lambda p: p[0])
        merged: list = []
        for left, right in cleaned:
            if merged and merged[-1][1] >= left:
                if merged[-1][1] < right:
                    merged[-1] = (merged[-1][0], right)
            else:
                merged.append((left, right))
        self.pieces = tuple(merged)
        self._folds = None

    # -- constructors --------------------------------------------------

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def unit(cls) -> "IntervalSet":
        return cls([(0, 1)])

    # -- basic queries ---------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    def measure(self) -> Endpoint:
        total = Endpoint(0)
        for left, right in self.pieces:
            total = total + (right - left)
        return total

    def measure_mpf(self) -> mpf:
        return self.measure().mpf()

    def __float__(self):
        return float(self.measure())

    def contains(self, x) -> bool:
        x = Endpoint.coerce(x)
        for left, right in self.pieces:
            if left <= x and x < right:
                return True
        return False

    def __eq__(self, other):
        if not isinstance(other, IntervalSet):
            return NotImplemented
        if len(self.pieces) != len(other.pieces):
            return False
        return all(
            l1 == l2 and r1 == r2
            for (l1, r1), (l2, r2) in zip(self.pieces, other.pieces)
        )

    def __repr__(self):
        if not self.pieces:
            return "IntervalSet(empty)"
        parts = ", ".join(
            f"[{float(l):.6g},{float(r):.6g})" for l, r in self.pieces
        )
        return f"IntervalSet({parts})"

    # -- set algebra (one sorted sweep) ---------------------------------

    def _combine(self, other: "IntervalSet", keep) -> "IntervalSet":
        """The cells between consecutive distinct endpoints of both sets
        on which keep(in self, in other) holds."""
        ends = [x for piece in self.pieces + other.pieces for x in piece]
        cuts, rank = _ranked(ends)
        # steps[side][j]: the change of side's depth at cuts[j]
        steps = ([0] * len(cuts), [0] * len(cuts))
        split = 2 * len(self.pieces)
        for i, j in enumerate(rank):
            steps[i >= split][j] += 1 if i % 2 == 0 else -1
        out = []
        depth = [0, 0]
        for j, cut in enumerate(cuts):
            if j and keep(depth[0] > 0, depth[1] > 0):
                out.append((cuts[j - 1], cut))
            depth[0] += steps[0][j]
            depth[1] += steps[1][j]
        return IntervalSet(out)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.pieces + other.pieces)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        return self._combine(other, lambda a, b: a and b)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return self._combine(other, lambda a, b: a and not b)

    def symmetric_difference(self, other: "IntervalSet") -> "IntervalSet":
        return self._combine(other, lambda a, b: a != b)

    def complement(self, lo=0, hi=1) -> "IntervalSet":
        return IntervalSet([(lo, hi)]).difference(self)

    def shift(self, by) -> "IntervalSet":
        by = Endpoint.coerce(by)
        return IntervalSet([(l + by, r + by) for l, r in self.pieces])

    def scale(self, c) -> "IntervalSet":
        c = Fraction(c)
        if c <= 0:
            raise InvalidInput("scale factor must be positive")
        return IntervalSet([(l * c, r * c) for l, r in self.pieces])

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        return {
            "intervals": [
                {"left": l.to_json(), "right": r.to_json()} for l, r in self.pieces
            ]
        }

    @classmethod
    def from_json(cls, obj: dict, *, bits=DEFAULT_PRECISION_BITS) -> "IntervalSet":
        def endpoint(item, key):
            return Endpoint.from_json(_json_field(item, key, "interval", dict), bits=bits)

        return cls(
            [
                (endpoint(item, "left"), endpoint(item, "right"))
                for item in _json_array(obj, "intervals", "interval set")
            ]
        )


def _check_subset_of_unit(S: IntervalSet) -> None:
    if S.is_empty:
        return
    if S.pieces[0][0] < 0 or S.pieces[-1][1] > 1:
        raise InvalidInput("set must be contained in [0,1)")


def fold_pattern(N: int, S: IntervalSet):
    """Partition [0, 1/N) into maximal pieces with a constant hit pattern.

    Returns a list of (left, right, ks) triples covering [0, 1/N), where ks
    is the sorted tuple of offsets k such that t + k/N lies in S for every t
    in [left, right).

    Closed form: with u = N*t in [0, 1), t + k/N lies in [a, b) exactly when
    ceil(N*a - u) <= k < ceil(N*b - u), and ceil(N*x - u) = floor(N*x) +
    [u < {N*x}].  So the hit set changes only at the cuts {N*x} over the
    endpoints x of S, and between two cuts it is a union of integer ranges.

    The pattern is computed once per (S, N) and memoized on S; each call
    returns a new list of it.
    """
    if N < 1:
        raise InvalidInput("N must be a positive integer")
    folds = S._folds
    if folds is None:
        folds = S._folds = {}
    pattern = folds.get(N)
    if pattern is None:
        pattern = folds[N] = _fold_pattern(N, S)
    return list(pattern)


def _fold_pattern(N: int, S: IntervalSet) -> tuple:
    """The pattern of fold_pattern, as a tuple, computed from S."""
    _check_subset_of_unit(S)
    scaled = [x * N for piece in S.pieces for x in piece]
    floors = [x.floor() for x in scaled]
    fracs = [x - f for x, f in zip(scaled, floors)]
    # distinct cuts in increasing order, 0 first; rank[i] is the index of fracs[i]
    cuts, (_, *rank) = _ranked([_ZERO, *fracs])
    cell = Fraction(1, N)
    bounds = [c * cell for c in cuts] + [Endpoint(cell)]
    out = []
    for piece in range(len(cuts)):
        # on [cuts[piece], cuts[piece + 1]), u < {N*x} iff rank > piece
        ks = []
        for i in range(0, len(fracs), 2):
            lo = floors[i] + (rank[i] > piece)
            hi = floors[i + 1] + (rank[i + 1] > piece)
            ks.extend(range(lo, hi))
        out.append((bounds[piece], bounds[piece + 1], tuple(ks)))
    return tuple(out)


def fold_counts(N: int, S: IntervalSet):
    """Step function t -> #{k : t + k/N in S} on [0, 1/N).

    Returned as a list of (left, right, count) pieces partitioning [0, 1/N),
    with equal-count neighbors merged.
    """
    out = []
    for left, right, ks in fold_pattern(N, S):
        count = len(ks)
        if out and out[-1][2] == count:
            out[-1] = (out[-1][0], right, count)
        else:
            out.append((left, right, count))
    return out


def a_geq(N: int, S: IntervalSet, n: int) -> IntervalSet:
    """The subset of [0, 1/N) whose fiber meets S at least n times."""
    if not 1 <= n <= N:
        raise InvalidInput(f"level n={n} outside 1..{N}")
    return IntervalSet(
        (left, right) for left, right, ks in fold_pattern(N, S) if len(ks) >= n
    )


def geq_levels(N: int, pattern) -> list[IntervalSet]:
    """The N nested sets a_geq(n), n = 1..N, of one fold pattern.

    A set changes only after a count that occurs, so each distinct set is
    built once and shared by the levels it covers.
    """
    out: list[IntervalSet] = []
    for c in sorted({len(ks) for _, _, ks in pattern}):
        if c > len(out):
            level = IntervalSet((l, r) for l, r, ks in pattern if len(ks) >= c)
            out.extend([level] * (c - len(out)))
    out.extend([IntervalSet.empty()] * (N - len(out)))
    return out


def a_geq_all(N: int, S: IntervalSet) -> list[IntervalSet]:
    """All N nested fiber-count sets from a single folding pass."""
    return geq_levels(N, fold_pattern(N, S))


def a_exact(N: int, S: IntervalSet, n: int) -> IntervalSet:
    """The subset of [0, 1/N) whose fiber meets S exactly n times."""
    if not 0 <= n <= N:
        raise InvalidInput(f"level n={n} outside 0..{N}")
    return IntervalSet(
        (left, right) for left, right, ks in fold_pattern(N, S) if len(ks) == n
    )


def b_exact(N: int, S: IntervalSet, n: int) -> IntervalSet:
    """The points of S whose fiber meets S exactly n times."""
    if not 1 <= n <= N:
        raise InvalidInput(f"level n={n} outside 1..{N}")
    cell = Fraction(1, N)
    pairs = []
    for left, right, ks in fold_pattern(N, S):
        if len(ks) != n:
            continue
        for k in ks:
            pairs.append((left + k * cell, right + k * cell))
    return IntervalSet(pairs)


def _unit_chain(points: Iterable, message: str) -> list[Endpoint]:
    """[0, *points, 1] as Endpoints, raising InvalidInput(message) unless it
    is strictly increasing."""
    chain = [Endpoint(0), *map(Endpoint.coerce, points), Endpoint(1)]
    if not all(p < q for p, q in zip(chain, chain[1:])):
        raise InvalidInput(message)
    return chain


def grid_separation_ok(N: int, endpoints: Sequence) -> bool:
    """True iff every gap between consecutive members of {0, endpoints.., 1}
    contains some k/N as an interior point."""
    if N < 1:
        raise InvalidInput("N must be a positive integer")
    pts = _unit_chain(endpoints, "endpoints must be strictly increasing in (0,1)")
    for p, q in zip(pts, pts[1:]):
        k_lo = (p * N).floor() + 1
        # k_lo/N is the smallest grid point strictly above p
        if Endpoint(k_lo) >= q * N:
            return False
    return True
