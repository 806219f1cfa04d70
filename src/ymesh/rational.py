"""Extended rational numbers: Fraction plus a single point at infinity."""

from fractions import Fraction


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
