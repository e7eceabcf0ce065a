"""Exact arithmetic in the two norm-Euclidean quadratic rings Z[i] and Z[w].

Elements are stored on the integer basis {1, theta} where theta is i
(theta^2 = -1) or the primitive cube root of unity w (theta^2 = -1 - theta).
All coordinates are arbitrary-precision Python ints; nothing here ever
touches floating point, so equality and divisibility results are exact at
any size.

Every value is immutable and every operation is a pure function.
"""

from __future__ import annotations

import enum
import re


class Ring(enum.Enum):
    """Tag selecting one of the two supported quadratic rings."""

    GAUSSIAN = "gaussian"
    EISENSTEIN = "eisenstein"

    @property
    def theta_symbol(self) -> str:
        return "i" if self is Ring.GAUSSIAN else "w"

    @property
    def unit_count(self) -> int:
        return 4 if self is Ring.GAUSSIAN else 6

    @property
    def units(self) -> tuple["QuadInt", ...]:
        return _UNITS[self]

    @property
    def minimal_prime(self) -> "QuadInt":
        """The positive non-unit of least norm: 1+i (norm 2) or 2+w (norm 3)."""
        return _MINIMAL[self]

    @property
    def residue_char(self) -> int:
        """Size of the residue field modulo the minimal prime (2 or 3)."""
        return 2 if self is Ring.GAUSSIAN else 3

    def is_inert(self, q: int) -> bool:
        """Whether the rational prime q stays prime in this ring."""
        if self is Ring.GAUSSIAN:
            return q % 4 == 3
        return q % 3 == 2

    def is_ramified(self, q: int) -> bool:
        return q == (2 if self is Ring.GAUSSIAN else 3)

    def __str__(self) -> str:
        return self.value


GAUSSIAN = Ring.GAUSSIAN
EISENSTEIN = Ring.EISENSTEIN


class RingMismatchError(ValueError):
    pass


class QuadInt:
    """An element a + b*theta of Z[i] or Z[w]."""

    __slots__ = ("ring", "a", "b")

    ring: Ring
    a: int
    b: int

    def __init__(self, ring: Ring, a: int, b: int = 0) -> None:
        self.ring = ring
        self.a = a
        self.b = b

    # -- ring arithmetic ----------------------------------------------------

    def _coerce(self, other) -> "QuadInt":
        if isinstance(other, QuadInt):
            if other.ring is not self.ring:
                raise RingMismatchError(
                    f"cannot combine {self.ring} and {other.ring} elements"
                )
            return other
        if isinstance(other, int):
            return QuadInt(self.ring, other, 0)
        return NotImplemented

    def __add__(self, other) -> "QuadInt":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadInt(self.ring, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other) -> "QuadInt":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadInt(self.ring, self.a - o.a, self.b - o.b)

    def __rsub__(self, other) -> "QuadInt":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadInt(self.ring, o.a - self.a, o.b - self.b)

    def __neg__(self) -> "QuadInt":
        return QuadInt(self.ring, -self.a, -self.b)

    def __mul__(self, other) -> "QuadInt":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, c, d = self.a, self.b, o.a, o.b
        bd = b * d
        if self.ring is Ring.GAUSSIAN:
            # (a+bi)(c+di) = (ac-bd) + (ad+bc)i
            return QuadInt(self.ring, a * c - bd, a * d + b * c)
        # (a+bw)(c+dw) = ac + (ad+bc)w + bd*w^2,  w^2 = -1-w
        return QuadInt(self.ring, a * c - bd, a * d + b * c - bd)

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "QuadInt":
        if exp < 0:
            raise ValueError("negative powers leave the ring")
        result = QuadInt(self.ring, 1, 0)
        base = self
        e = exp
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuadInt):
            return NotImplemented
        return self.ring is other.ring and self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.ring, self.a, self.b))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    # -- norms and conjugation ----------------------------------------------

    def norm(self) -> int:
        """The field norm: a^2 + b^2 (Gaussian) or a^2 - ab + b^2 (Eisenstein)."""
        a, b = self.a, self.b
        if self.ring is Ring.GAUSSIAN:
            return a * a + b * b
        return a * a - a * b + b * b

    def conjugate(self) -> "QuadInt":
        if self.ring is Ring.GAUSSIAN:
            return QuadInt(self.ring, self.a, -self.b)
        return QuadInt(self.ring, self.a - self.b, -self.b)

    def real_part_doubled(self) -> int:
        """2*Re(x) as an exact integer (Re itself may be a half-integer)."""
        if self.ring is Ring.GAUSSIAN:
            return 2 * self.a
        return 2 * self.a - self.b

    def is_unit(self) -> bool:
        return self.norm() == 1

    def is_even(self) -> bool:
        """Divisibility by the minimal prime (1+i resp. 2+w)."""
        if self.ring is Ring.GAUSSIAN:
            return (self.a + self.b) % 2 == 0
        return (self.a + self.b) % 3 == 0

    def residue_mod_minimal(self) -> int:
        """Image in Z/2 resp. Z/3 under the quotient map theta -> 1."""
        if self.ring is Ring.GAUSSIAN:
            return (self.a + self.b) % 2
        return (self.a + self.b) % 3

    # -- associates and the canonical sector ---------------------------------

    def associates(self) -> list["QuadInt"]:
        """All unit multiples of this element (4 or 6 of them)."""
        return [self * u for u in self.ring.units]

    def in_sector(self) -> bool:
        """Membership in the fundamental sector holding one associate per class.

        Gaussian: a > 0 and b >= 0.  Eisenstein: a > b >= 0.
        """
        if self.ring is Ring.GAUSSIAN:
            return self.a > 0 and self.b >= 0
        return self.a > self.b >= 0

    def sector_canonical(self) -> tuple["QuadInt", "QuadInt"]:
        """Split x = u * y with u a unit and y the sector representative.

        The units are the powers g**k of i (Gaussian) or 1+w (Eisenstein);
        y = x * g**k and u = g**-k, where the signs of a, b and a - b pick k:
        the quadrant of x (Gaussian) or its sextant (Eisenstein).
        """
        a, b = self.a, self.b
        if not self:
            raise ZeroDivisionError("zero has no sector representative")
        if self.ring is Ring.GAUSSIAN:
            if a > 0 and b >= 0:
                k = 0
            elif b < 0 <= a:
                k = 1
            elif a < 0 and b <= 0:
                k = 2
            else:  # a <= 0 < b
                k = 3
        elif a > b >= 0:
            k = 0
        elif b < 0 <= a:
            k = 1
        elif b <= a < 0:
            k = 2
        elif a < b <= 0:
            k = 3
        elif a <= 0 < b:
            k = 4
        else:  # 0 < a <= b
            k = 5
        units = self.ring.units
        return units[-k], self * units[k]

    # -- Euclidean structure --------------------------------------------------

    def __divmod__(self, other) -> tuple["QuadInt", "QuadInt"]:
        """Division with norm(r) < norm(y), rounding the exact quotient to
        the nearest lattice point (ties toward zero)."""
        y = self._coerce(other)
        if y is NotImplemented:
            return NotImplemented
        n = y.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero")
        p = self * y.conjugate()
        q = QuadInt(self.ring, _round_nearest(p.a, n), _round_nearest(p.b, n))
        r = self - q * y
        return q, r

    def __floordiv__(self, other) -> "QuadInt":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "QuadInt":
        return divmod(self, other)[1]

    def exact_divide(self, other) -> "QuadInt | None":
        """self / other when other divides self exactly, else None."""
        y = self._coerce(other)
        if y is NotImplemented:
            raise TypeError(f"cannot divide QuadInt by {type(other)}")
        n = y.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero")
        p = self * y.conjugate()
        qa, ra = divmod(p.a, n)
        if ra:
            return None
        qb, rb = divmod(p.b, n)
        if rb:
            return None
        return QuadInt(self.ring, qa, qb)

    # -- text and JSON ---------------------------------------------------------

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"QuadInt({self.ring.value}, {self.a}, {self.b})"

    def to_json(self) -> dict:
        """Coordinates as decimal strings; values routinely exceed 64 bits."""
        return {"ring": self.ring.value, "a": str(self.a), "b": str(self.b)}

    @staticmethod
    def from_json(obj: dict) -> "QuadInt":
        return QuadInt(Ring(obj["ring"]), int(obj["a"]), int(obj["b"]))


def _round_nearest(p: int, n: int) -> int:
    """Nearest integer to p/n (n > 0), ties rounded toward zero."""
    if p >= 0:
        return (2 * p + n - 1) // (2 * n)
    return -((-2 * p + n - 1) // (2 * n))


_UNITS = {
    # 1, i, -1, -i
    Ring.GAUSSIAN: tuple(
        QuadInt(Ring.GAUSSIAN, a, b) for a, b in ((1, 0), (0, 1), (-1, 0), (0, -1))
    ),
    # Powers of the sixth root of unity 1+w: 1, 1+w, w, -1, -1-w, -w
    Ring.EISENSTEIN: tuple(
        QuadInt(Ring.EISENSTEIN, a, b)
        for a, b in ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
    ),
}

_MINIMAL = {
    Ring.GAUSSIAN: QuadInt(Ring.GAUSSIAN, 1, 1),
    Ring.EISENSTEIN: QuadInt(Ring.EISENSTEIN, 2, 1),
}


def gcd(x: QuadInt, y: QuadInt) -> QuadInt:
    """A greatest common divisor, returned as the sector representative.

    Euclid's algorithm with the remainders of ``x % y``: the quotient is
    x * conj(y) / N(y) rounded by _round_nearest.  The steps run on
    coordinate pairs (a, b) and (c, d) rather than on QuadInt values, so
    one QuadInt is built, for the last nonzero remainder.
    """
    ring = x.ring
    if ring is not y.ring:
        raise RingMismatchError("gcd of elements from different rings")
    if not x and not y:
        raise ZeroDivisionError("gcd(0, 0) is undefined")
    a, b, c, d = x.a, x.b, y.a, y.b
    gaussian = ring is Ring.GAUSSIAN
    while c or d:
        n = c * c + d * d if gaussian else c * c - c * d + d * d
        # (a + b*theta) * conj(c + d*theta) = pa + pb*theta
        pa = a * c + b * d if gaussian else a * (c - d) + b * d
        pb = b * c - a * d
        qa, qb = _round_nearest(pa, n), _round_nearest(pb, n)
        # the remainder (a + b*theta) - (qa + qb*theta) * (c + d*theta)
        ra = a - qa * c + qb * d
        rb = b - qa * d - qb * c
        if not gaussian:
            rb += qb * d
        a, b, c, d = c, d, ra, rb
    return QuadInt(ring, a, b).sector_canonical()[1]


# -- element text grammar ------------------------------------------------------
#
#   <sign?><int>  |  <sign?><int><sep><int>(w|i)     with <sep> in {+, -}
#
# e.g. "7-8i", "2+1w", "-3".  The b coefficient always carries an explicit
# magnitude ("2+1w", never "2+w").

_ELEMENT_RE = re.compile(r"^([+-]?\d+)(?:([+-]\d+)([wi]))?$")


class ElementParseError(ValueError):
    pass


def parse_element(text: str, ring: Ring) -> QuadInt:
    m = _ELEMENT_RE.match(text.strip())
    if not m:
        raise ElementParseError(f"cannot parse element {text!r}")
    a = int(m.group(1))
    if m.group(2) is None:
        return QuadInt(ring, a, 0)
    sym = m.group(3)
    if sym != ring.theta_symbol:
        raise ElementParseError(
            f"basis symbol {sym!r} does not belong to the {ring} ring"
        )
    return QuadInt(ring, a, int(m.group(2)))


def format_element(x: QuadInt) -> str:
    if x.b == 0:
        return str(x.a)
    sign = "+" if x.b >= 0 else "-"
    return f"{x.a}{sign}{abs(x.b)}{x.ring.theta_symbol}"
