"""Arithmetic in Z[zeta_p] for the class-number-1 primes p.

Elements are integer coefficient vectors of length p-1 reduced by the
cyclotomic polynomial 1 + x + ... + x^(p-1).  A norm is the product of the
p-1 Galois conjugates, taken up a chain of subfields in exact integers
(Cohen, A Course in Computational Algebraic Number Theory, GTM 138), so it
stays correct at any coefficient size.  No
positive-representative system exists here for p >= 5; the module provides
norms, evenness, the ramification identity, residue degrees and splitting
patterns, generalized Mersenne norms, and the abstract odd-form congruence
validator.  The Mersenne-norm records (conjecture_records) run one exponent
per task on the shared process pool, parallel.run_chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from operator import add, itemgetter, mul

from .parallel import run_chunks
from .rational import divisor_in_classes, factor_rational, is_rational_prime

SUPPORTED_PRIMES = (3, 5, 7, 11, 13, 17, 19)


def _check_p(p: int) -> None:
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"p must be one of {SUPPORTED_PRIMES}, got {p}")


def _reduce(coeffs: list[int], p: int) -> tuple[int, ...]:
    """Reduce mod 1 + x + ... + x^(p-1) in one pass: x^i folds to x^(i mod p),
    as x^p = 1, then x^(p-1) = -(1 + x + ... + x^(p-2))."""
    folded = coeffs[:p] + [0] * (p - len(coeffs))
    for i in range(p, len(coeffs)):
        folded[i % p] += coeffs[i]
    top = folded.pop()
    return tuple([c - top for c in folded]) if top else tuple(folded)


class CycElement:
    """sum_j coeffs[j] * zeta_p**j with 0 <= j <= p-2."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs) -> None:
        _check_p(p)
        self.p = p
        self.coeffs = _reduce(list(coeffs), p)

    @staticmethod
    def from_int(p: int, n: int) -> "CycElement":
        return CycElement(p, [n])

    @staticmethod
    def zeta(p: int, j: int = 1) -> "CycElement":
        coeffs = [0] * (j % p + 1)
        coeffs[j % p] = 1
        return CycElement(p, coeffs)

    def _check_other(self, other: "CycElement") -> None:
        if not isinstance(other, CycElement):
            raise TypeError(f"expected CycElement, got {type(other)}")
        if other.p != self.p:
            raise ValueError(f"mixed cyclotomic levels {self.p} and {other.p}")

    def __add__(self, other: "CycElement") -> "CycElement":
        self._check_other(other)
        return CycElement(
            self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "CycElement") -> "CycElement":
        self._check_other(other)
        return CycElement(
            self.p, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self) -> "CycElement":
        return CycElement(self.p, [-a for a in self.coeffs])

    def __mul__(self, other: "CycElement") -> "CycElement":
        self._check_other(other)
        u, v = self.coeffs, other.coeffs
        out = [0] * (2 * len(u) - 1)
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    if b:
                        out[i + j] += a * b
        return CycElement(self.p, out)

    def __pow__(self, exp: int) -> "CycElement":
        if exp < 0:
            raise ValueError("negative powers leave the ring")
        result = CycElement.from_int(self.p, 1)
        base = self
        while exp:
            if exp & 1:
                result = result * base
            exp >>= 1
            if exp:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycElement):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __repr__(self) -> str:
        return f"CycElement({self.p}, {list(self.coeffs)})"

    def coefficient_sum(self) -> int:
        return sum(self.coeffs)


def one_minus_zeta(p: int) -> CycElement:
    return CycElement(p, [1, -1])


def _tower(p: int) -> list[tuple]:
    """The ring products that take x to N(x), up a chain of subfields.

    With a generator g of (Z/p)^* and the prime factors l_1 <= ... <= l_r
    of p - 1, step i multiplies y by its conjugates sigma_s(y), s = tau**j
    for 0 < j < l_i, tau = g**((p-1)/(l_1...l_i)); y is then fixed by the
    subgroup of order l_1...l_i, and after step r it is N(x).  Vectors live
    in Z[t]/(t^p - 1), where sigma_s: t -> t^s permutes indices.  Listing
    the indices as 0, g^0, g^1, ..., g^(p-2) puts the cosets g^k H (k < m)
    of the subgroup H of index m in the columns of m-wide rows, and z fixed
    by H is constant on each.  So coefficient r of z * w = sum_i z_i w_(r-i)
    is z_0 w_r plus the sum over k of z_(g^k) times column k's sum of
    w_(r-i), and a product needs one r per coset of the group fixing it.

    A product is (s, step_end, take, reps, m, coset): take(y) lists
    sigma_s(y)_(r-i) for each needed r (0, g^0, g^1, ...) and each listed
    i, reps(z) lists z at 0, g^0, ..., g^(m-1), and coset[v] is the place
    of v's r among the needed ones.
    """
    factors = [q for q, e in factor_rational(p - 1).factors for _ in range(e)]
    g = next(
        g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors)
    )
    powers = [pow(g, e, p) for e in range(p - 1)]
    log = {power: e for e, power in enumerate(powers)}
    listing = [0] + powers
    products = []
    m = p - 1
    for q in factors:
        for j in range(1, q):
            m_out = m // q if j == q - 1 else m
            s = powers[j * m // q]  # tau**j, tau = g**(m/q)
            # sigma_s(y) has y_v at t^(v*s), so its t^(r-i) is y_((r-i)/s)
            inverse = pow(s, -1, p)
            take = itemgetter(
                *[(r - i) * inverse % p for r in listing[: m_out + 1] for i in listing]
            )
            coset = [0] + [1 + log[v] % m_out for v in range(1, p)]
            products.append((s, m_out < m, take, itemgetter(*listing[: m + 1]), m, coset))
        m //= q
    return products


_TOWERS = {p: _tower(p) for p in SUPPORTED_PRIMES}


def cyc_norm(x: CycElement) -> int:
    """The field norm: the product of the p - 1 conjugates of x, exact at
    any size, taken up the tower of subfields of _tower.  The last product
    is fixed by the whole group, c0 + c1*(t + ... + t^(p-1)), which is
    c0 - c1 at t = zeta_p."""
    p = x.p
    y = z = [*x.coeffs, 0]
    for _, step_end, take, reps, m, coset in _TOWERS[p]:
        b = take(y)
        a0, *a = reps(z)
        vals = []
        for r in range(0, len(b), p):
            sums = b[r + 1 : r + 1 + m]
            for c in range(r + 1 + m, r + p, m):
                sums = map(add, sums, b[c : c + m])
            vals.append(a0 * b[r] + sum(map(mul, a, sums)))
        z = [vals[k] for k in coset]
        if step_end:
            y = z
    return vals[0] - vals[1]


def cyc_is_even(x: CycElement) -> bool:
    """Divisibility by 1 - zeta_p, read off from the image under zeta -> 1."""
    return x.coefficient_sum() % x.p == 0


def ramification_check(p: int) -> bool:
    """(1 - zeta_p)**(p-1) must be p times a unit."""
    _check_p(p)
    v = one_minus_zeta(p) ** (p - 1)
    if any(c % p for c in v.coeffs):
        return False
    u = CycElement(p, [c // p for c in v.coeffs])
    return abs(cyc_norm(u)) == 1


def discriminant(p: int) -> int:
    """Field discriminant: (-1)^((p-1)/2) * p^(p-2), and -4 at p = 4."""
    if p == 4:
        return -4
    _check_p(p)
    sign = -1 if ((p - 1) // 2) % 2 else 1
    return sign * p ** (p - 2)


def residue_degree(q: int, p: int) -> int:
    """Multiplicative order of q mod p; prime ideals above q have norm q**f."""
    _check_p(p)
    if q % p == 0:
        raise ValueError("q must differ from p")
    r = q % p
    f = 1
    acc = r
    while acc != 1:
        acc = acc * r % p
        f += 1
    return f


# -- polynomials over F_q, ascending coefficient lists -----------------------


def _poly_trim(u: list[int]) -> list[int]:
    while u and u[-1] == 0:
        u.pop()
    return u


def _poly_rem(u: list[int], v: list[int], q: int) -> list[int]:
    u = [c % q for c in u]
    d = len(v) - 1
    inv_lead = pow(v[-1], -1, q)
    for i in range(len(u) - 1, d - 1, -1):
        c = u[i]
        if c:
            scale = c * inv_lead % q
            for j in range(d + 1):
                u[i - d + j] = (u[i - d + j] - scale * v[j]) % q
    del u[d:]
    return _poly_trim(u)


def _poly_mulmod(u: list[int], v: list[int], mod: list[int], q: int) -> list[int]:
    if not u or not v:
        return []
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                out[i + j] = (out[i + j] + a * b) % q
    return _poly_rem(out, mod, q)


def _poly_powmod(base: list[int], exp: int, mod: list[int], q: int) -> list[int]:
    result = [1]
    b = _poly_rem(list(base), mod, q)
    while exp:
        if exp & 1:
            result = _poly_mulmod(result, b, mod, q)
        exp >>= 1
        if exp:
            b = _poly_mulmod(b, b, mod, q)
    return result


def _poly_sub(u: list[int], v: list[int], q: int) -> list[int]:
    n = max(len(u), len(v))
    out = [
        ((u[i] if i < len(u) else 0) - (v[i] if i < len(v) else 0)) % q
        for i in range(n)
    ]
    return _poly_trim(out)


def _poly_gcd(u: list[int], v: list[int], q: int) -> list[int]:
    u, v = _poly_trim(list(u)), _poly_trim(list(v))
    while v:
        u = _poly_rem(u, v, q)
        u, v = v, u
    if u:
        inv = pow(u[-1], -1, q)
        u = [c * inv % q for c in u]
    return u


def splitting_pattern_check(q: int, p: int) -> bool:
    """Verify the cyclotomic polynomial mod q factors into (p-1)/f
    irreducibles, all of degree f = residue_degree(q, p).

    Uses distinct-degree structure: x^(q^f) = x must hold mod (Phi_p, q),
    and for every proper divisor d of f, gcd(Phi_p, x^(q^d) - x) must be
    trivial (no factor of smaller degree).
    """
    _check_p(p)
    if q % p == 0:
        raise ValueError("q must differ from p")
    if not is_rational_prime(q):
        raise ValueError("q must be a rational prime")
    f = residue_degree(q, p)
    phi = [1] * p  # 1 + x + ... + x^(p-1)
    x = [0, 1]
    for d in range(1, f + 1):
        if f % d:
            continue
        h = _poly_powmod(x, q**d, phi, q)
        diff = _poly_sub(h, x, q)
        if d < f:
            if not diff:
                return False  # every factor would have degree dividing d < f
            if len(_poly_gcd(phi, diff, q)) != 1:
                return False  # a factor of degree d < f exists
        elif diff:
            return False  # some factor has degree not dividing f
    return True


def order_lemma_check(a: int, p: int) -> bool:
    """p divides 1 + a + ... + a^(t-1) where t is the order of a mod p."""
    _check_p(p)
    if a % p in (0, 1):
        raise ValueError("a must not be 0 or 1 mod p")
    t = residue_degree(a, p)
    total = sum(a**k for k in range(t))
    return total % p == 0


def cyc_mersenne_norm(p: int, k: int) -> int:
    """Norm of (1 - zeta_p)**k - 1, exact at any k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    element = one_minus_zeta(p) ** k - CycElement.from_int(p, 1)
    return cyc_norm(element)


def _record(args: tuple[int, int]) -> dict:
    """The record of one exponent k at level p.  For k = d*e, N(pi**d - 1)
    divides N(pi**k - 1) (pi = 1 - zeta_p), and a proper divisor proves the
    norm composite with no modular powering.  For prime k the norm is first
    searched for a divisor among the odd l with l**(p-1) = 1 (mod k), as
    pi - 1 is a unit, pi has order k modulo each prime above l, and k
    divides l**f - 1 with f | p - 1; other norms go to is_rational_prime."""
    p, k = args
    norm = cyc_mersenne_norm(p, k)
    d = next((d for d in range(2, isqrt(k) + 1) if k % d == 0), None)
    if d:
        divisor = cyc_mersenne_norm(p, d)
    else:
        classes = [r for r in range(1, 2 * k, 2) if pow(r, p - 1, k) == 1]
        divisor = divisor_in_classes(norm, 2 * k, classes) or norm
    composite = 1 < divisor < norm and norm % divisor == 0
    return {
        "p": p,
        "k": k,
        "k_mod_4p": k % (4 * p),
        "norm": str(norm),
        "norm_is_prime": not composite and is_rational_prime(norm),
    }


def conjecture_records(p: int, k_max: int, jobs: int | None = None) -> list[dict]:
    """Generalized Mersenne norms for k = +-1 (mod 4p), in increasing k:
    recorded data only, no perfection claim is attached.  The exponents run
    on the shared pool (jobs as in mersenne.scan), largest first: the cost
    grows steeply with k, and the pool then ends on small exponents instead
    of one core running a large one."""
    _check_p(p)
    ks = [k for k in range(2, k_max + 1) if k % (4 * p) in (1, 4 * p - 1)]
    records = list(run_chunks(_record, [(p, k) for k in reversed(ks)], jobs))
    records.reverse()
    return records


# -- abstract odd-form validation ------------------------------------------------


@dataclass(frozen=True)
class AbstractOddFactorization:
    """Residue-class shape of an odd element: entries (j, e, special) say a
    prime congruent to j mod (1 - zeta_p) occurs with exponent e."""

    p: int
    entries: tuple[tuple[int, int, bool], ...]

    @staticmethod
    def from_json(obj: dict) -> "AbstractOddFactorization":
        """The form from parsed JSON, whose p, j and e must be JSON integers
        and special a JSON boolean, or TypeError is raised."""
        entries = tuple((f["j"], f["e"], f["special"]) for f in obj["entries"])
        # type() tests, as bool is a subclass of int
        if type(obj["p"]) is not int or not all(
            type(j) is int and type(e) is int and type(special) is bool
            for j, e, special in entries
        ):
            raise TypeError("p, j and e must be JSON integers and special a JSON boolean")
        return AbstractOddFactorization(obj["p"], entries)


def validate_general_odd_form(
    f: AbstractOddFactorization,
) -> tuple[bool, str | None]:
    """Congruence conditions for an odd norm-perfect integer in Z[zeta_p].

    The special entry (j0, k) needs k = -1 mod p when j0 = 1, else
    k = -1 mod t where t is the order of j0 mod p; every other entry (j, e)
    must avoid those congruences.  Exactly one special entry must exist.
    """
    p = f.p
    _check_p(p)
    specials = [entry for entry in f.entries if entry[2]]
    if len(specials) > 1:
        raise ValueError("at most one special entry is allowed")
    for j, e, _ in f.entries:
        if not 1 <= j <= p - 1:
            raise ValueError(f"residue class {j} outside 1..{p - 1}")
        if e < 1:
            raise ValueError(f"exponent {e} must be >= 1")
    if not specials:
        return False, "no special entry"
    j0, k, _ = specials[0]
    modulus = p if j0 == 1 else residue_degree(j0, p)
    if (k + 1) % modulus != 0:
        return False, (
            f"special exponent {k} is not -1 mod {modulus} for class {j0}"
        )
    for j, e, special in f.entries:
        if special:
            continue
        modulus = p if j == 1 else residue_degree(j, p)
        if (e + 1) % modulus == 0:
            return False, (
                f"non-special exponent {e} hits -1 mod {modulus} for class {j}"
            )
    return True, None
