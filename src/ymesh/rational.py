"""Extended rational numbers: Fraction plus a single point at infinity; the
exchange relation y y' = prod (1+y)^m / prod (1+1/y)^m on integer pairs."""

from fractions import Fraction
from math import gcd


class DegenerateError(ArithmeticError):
    """Raised when an exact computation hits an indeterminate form (0/0, inf*0, ...)."""


class ExtQ:
    """An element of Q union {inf}, with exact arithmetic.

    Indeterminate forms (inf+inf, inf*0, 0/0, inf/inf) raise DegenerateError.
    """

    __slots__ = ("q",)

    def __init__(self, value=0, den=None):
        if isinstance(value, ExtQ):
            self.q = value.q
        elif value is None:
            self.q = None  # infinity
        elif den is not None:
            if den == 0:
                if value == 0:
                    raise DegenerateError("0/0")
                self.q = None
            else:
                self.q = Fraction(value, den)
        else:
            self.q = Fraction(value)

    @classmethod
    def from_reduced(cls, p, q):
        """p/q for a pair that is already reduced: integers with gcd(p, q) = 1
        and q > 0, or inf = (1, 0).  The pair is trusted, not reduced again
        (``mul_pow`` and the Y-runs keep their pairs in this form); any other
        pair makes a wrong value.  Sets the two slots of the Fraction, the
        one way to skip its gcd on every Python this package supports."""
        x = object.__new__(cls)
        if q:
            f = object.__new__(Fraction)
            f._numerator, f._denominator = p, q
            x.q = f
        else:
            x.q = None
        return x

    @classmethod
    def infinity(cls):
        return cls(None)

    @property
    def is_inf(self):
        return self.q is None

    def __bool__(self):
        return self.is_inf or self.q != 0

    def __eq__(self, other):
        if not isinstance(other, ExtQ):
            if other is None:
                return NotImplemented
            try:
                other = ExtQ(other)
            except (TypeError, ValueError):
                return NotImplemented
        return self.q == other.q

    def __hash__(self):
        return hash(self.q)

    def __repr__(self):
        return "ExtQ(inf)" if self.is_inf else "ExtQ(%s)" % self.q

    def __str__(self):
        return "inf" if self.is_inf else str(self.q)

    @classmethod
    def parse(cls, s):
        s = s.strip()
        if s == "inf":
            return cls.infinity()
        return cls(Fraction(s))

    def __add__(self, other):
        other = other if isinstance(other, ExtQ) else ExtQ(other)
        if self.is_inf or other.is_inf:
            if self.is_inf and other.is_inf:
                raise DegenerateError("inf + inf")
            return ExtQ.infinity()
        return ExtQ(self.q + other.q)

    __radd__ = __add__

    def __neg__(self):
        return ExtQ.infinity() if self.is_inf else ExtQ(-self.q)

    def __sub__(self, other):
        other = other if isinstance(other, ExtQ) else ExtQ(other)
        return self + (-other)

    def __rsub__(self, other):
        return ExtQ(other) - self

    def __mul__(self, other):
        other = other if isinstance(other, ExtQ) else ExtQ(other)
        if self.is_inf or other.is_inf:
            if (self.q == 0 if not self.is_inf else other.q == 0):
                raise DegenerateError("inf * 0")
            return ExtQ.infinity()
        return ExtQ(self.q * other.q)

    __rmul__ = __mul__

    def inv(self):
        if self.is_inf:
            return ExtQ(0)
        if self.q == 0:
            return ExtQ.infinity()
        return ExtQ(1 / self.q)

    def __truediv__(self, other):
        other = other if isinstance(other, ExtQ) else ExtQ(other)
        if self.is_inf and other.is_inf:
            raise DegenerateError("inf / inf")
        return self * other.inv()

    def __rtruediv__(self, other):
        return ExtQ(other) / self

    def as_pair(self):
        """Homogeneous (num, den) pair; inf -> (1, 0)."""
        if self.is_inf:
            return (1, 0)
        return (self.q.numerator, self.q.denominator)


INF = ExtQ.infinity()


def degenerate_pair(p, q):
    """Whether p/q (q = 0 for inf) is 0, -1 or inf: the values at which an
    exchange relation's factors 1+y and 1+1/y vanish or blow up."""
    return p == 0 or q == 0 or p + q == 0


def in_factor(p, q):
    """1 + y for y = p/q."""
    return p + q, q


def out_factor(p, q):
    """(1 + 1/y)^-1 = y/(y+1) for y = p/q, denominator kept >= 0."""
    s = p + q
    return (p, s) if s >= 0 else (-p, -s)


def mul_pow(y, f, k):
    """y * f^k for reduced pairs, denominators >= 0 and inf = (1, 0), reduced
    by cross-cancelling gcds as Fraction does; inf * 0 raises as in ExtQ."""
    (a, b), (c, d) = y, f
    if b == 0 or d == 0:
        if (c if b == 0 else a) == 0:
            raise DegenerateError("inf * 0")
        return 1, 0
    c, d = c ** k, d ** k
    g1, g2 = gcd(a, d), gcd(c, b)
    return (a // g1) * (c // g2), (b // g2) * (d // g1)


def exchange_relation(top, bottom, factors):
    """(holds, lhs, rhs) for y_top y_bottom = prod f(y)^m, both sides as
    unreduced pairs; factors are (y, m, f), f = in_factor or out_factor, y an
    integer pair.  An infinite left side never holds; inf * 0 raises as in
    ExtQ."""
    lhs = top[0] * bottom[0], top[1] * bottom[1]
    if lhs == (0, 0):
        raise DegenerateError("inf * 0")
    rhs = (1, 1)
    for y, m, fn in factors:
        a, b = fn(*y)
        rhs = rhs[0] * a ** m, rhs[1] * b ** m
    return lhs[1] != 0 and lhs[0] * rhs[1] == rhs[0] * lhs[1], lhs, rhs
