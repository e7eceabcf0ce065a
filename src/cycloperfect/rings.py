"""Exact arithmetic in the two norm-Euclidean quadratic rings Z[i] and Z[w].

Both are Z[theta] with theta^2 = -1 - t*theta: t = 0 gives Z[i] (theta = i)
and t = 1 gives Z[w] (theta = w, a primitive cube root of unity), so each
ring formula is written once, in t.  Elements are stored on the integer
basis {1, theta}.  All coordinates are arbitrary-precision Python ints;
nothing here ever touches floating point, so equality and divisibility
results are exact at any size.

Every value is immutable and every operation is a pure function.
"""

from __future__ import annotations

import enum
import re


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
        # (a+b*theta)(c+d*theta) = ac + (ad+bc)theta + bd*theta^2, theta^2 = -1 - t*theta
        return QuadInt(self.ring, a * c - bd, a * d + b * c - self.ring.t * bd)

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
        """The field norm a^2 - t*ab + b^2: a^2 + b^2 resp. a^2 - ab + b^2."""
        a, b = self.a, self.b
        return a * a - self.ring.t * a * b + b * b

    def conjugate(self) -> "QuadInt":
        """a + b*conj(theta), with conj(theta) = -t - theta."""
        return QuadInt(self.ring, self.a - self.ring.t * self.b, -self.b)

    def real_part_doubled(self) -> int:
        """2*Re(x) as an exact integer (Re itself may be a half-integer)."""
        return 2 * self.a - self.ring.t * self.b

    def is_unit(self) -> bool:
        return self.norm() == 1

    def is_even(self) -> bool:
        """Divisibility by the minimal prime (1+i resp. 2+w)."""
        return (self.a + self.b) % self.ring.residue_char == 0

    def residue_mod_minimal(self) -> int:
        """Image in Z/2 resp. Z/3 under the quotient map theta -> 1."""
        return (self.a + self.b) % self.ring.residue_char

    # -- associates and the canonical sector ---------------------------------

    def associates(self) -> list["QuadInt"]:
        """All unit multiples of this element (4 or 6 of them)."""
        return [self * u for u in self.ring.units]

    def in_sector(self) -> bool:
        """Membership in the fundamental sector holding one associate per class.

        b >= 0 and a > t*b: Gaussian a > 0 and b >= 0, Eisenstein a > b >= 0.
        """
        return self.b >= 0 and self.a > self.ring.t * self.b

    def sector_canonical(self) -> tuple["QuadInt", "QuadInt"]:
        """Split x = u * y with u a unit and y the sector representative.

        The units are the powers g**k of g = t + theta; y = x * g**k and
        u = g**-k for the least k that turns x into the sector, each turn
        (a + b*theta) * g = (t*a - b) + a*theta.
        """
        if not self:
            raise ZeroDivisionError("zero has no sector representative")
        ring, a, b = self.ring, self.a, self.b
        t = ring.t
        k = 0
        while not (b >= 0 and a > t * b):
            a, b = t * a - b, a
            k += 1
        return ring.units[-k], QuadInt(ring, a, b)

    # -- exact division ------------------------------------------------------

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


class Ring(enum.Enum):
    """Z[theta] with theta^2 = -1 - t*theta: Z[i] at t = 0, Z[w] at t = 1.

    Every per-ring constant is a plain member attribute, set once here: t,
    theta_symbol, residue_char = 2 + t (the norm of the minimal prime and
    the size of its residue field), unit_count = 4 + 2t, units (the powers
    of the generator t + theta: i resp. 1 + w) and minimal_prime
    (1 + t) + theta, the positive non-unit of least norm: 1+i resp. 2+w.
    """

    GAUSSIAN = ("gaussian", 0, "i")
    EISENSTEIN = ("eisenstein", 1, "w")

    def __new__(cls, value: str, t: int, theta_symbol: str) -> "Ring":
        ring = object.__new__(cls)
        ring._value_ = value
        return ring

    def __init__(self, value: str, t: int, theta_symbol: str) -> None:
        self.t = t
        self.theta_symbol = theta_symbol
        self.residue_char = 2 + t
        self.unit_count = 4 + 2 * t
        self.minimal_prime = QuadInt(self, 1 + t, 1)
        generator = QuadInt(self, t, 1)
        self.units = tuple(generator**k for k in range(self.unit_count))

    def is_inert(self, q: int) -> bool:
        """Whether the rational prime q stays prime in this ring: q = -1
        modulo 4 - t, the order of theta."""
        return q % (4 - self.t) == 3 - self.t

    def is_ramified(self, q: int) -> bool:
        return q == self.residue_char

    def __str__(self) -> str:
        return self.value


GAUSSIAN = Ring.GAUSSIAN
EISENSTEIN = Ring.EISENSTEIN


def _round_nearest(p: int, n: int) -> int:
    """Nearest integer to p/n (n > 0), ties rounded toward zero."""
    if p >= 0:
        return (2 * p + n - 1) // (2 * n)
    return -((-2 * p + n - 1) // (2 * n))


def _divrem(a: int, b: int, c: int, d: int, t: int) -> tuple[int, int, int, int]:
    """One Euclidean step on coordinate pairs of the ring with this t:
    (qa, qb, ra, rb) with a + b*theta = q * (c + d*theta) + r and
    N(r) < N(c + d*theta), q being the exact quotient rounded by
    _round_nearest.  A zero divisor raises ZeroDivisionError."""
    ct = c - t * d  # conj(c + d*theta) = ct - d*theta
    n = c * ct + d * d
    # (a + b*theta) * conj(c + d*theta) = pa + pb*theta
    pa = a * ct + b * d
    pb = b * c - a * d
    qa, qb = _round_nearest(pa, n), _round_nearest(pb, n)
    # the remainder (a + b*theta) - (qa + qb*theta) * (c + d*theta)
    ra = a - qa * c + qb * d
    rb = b - qa * d - qb * ct
    return qa, qb, ra, rb


def gcd(x: QuadInt, y: QuadInt) -> QuadInt:
    """A greatest common divisor, returned as the sector representative.

    Euclid's algorithm by _divrem steps on coordinate pairs, so one QuadInt
    is built, for the last nonzero remainder.
    """
    ring = x.ring
    if ring is not y.ring:
        raise RingMismatchError("gcd of elements from different rings")
    if not x and not y:
        raise ZeroDivisionError("gcd(0, 0) is undefined")
    a, b, c, d = x.a, x.b, y.a, y.b
    t = ring.t
    while c or d:
        _, _, ra, rb = _divrem(a, b, c, d, t)
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
