"""Arithmetic in GF(p^r) through dense discrete-log tables.

Elements are integer labels in [0, p^r): the base-p encoding of the
polynomial-basis coordinate vector, least significant coefficient first.
Label 0 is the zero element and labels 1..p-1 are the prime-field
constants, so vertex labels of the Cayley graphs downstream are stable
under any choice of modulus.

The exp table is filled by doubling: multiplication by the generator g
is an r x r matrix over GF(p), so each of the log2(p^r) passes maps the
block of powers already filled to the next one with one matrix product.
After that multiplication, inversion, powers and discrete logs are
table lookups and addition works digit by digit on the labels.
Plane arithmetic runs on numpy label arrays: add_array sums two arrays
one base-p digit at a time and mul_array scales an array by one label
through the same exp/log tables, so no other module reads the tables.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Optional, Sequence

import numpy as np

from .errors import (
    IndexOutOfRange,
    LogOfZero,
    NonPrimeCharacteristic,
    NotProperSubfield,
    OddDegreeField,
    OverflowingOrder,
    ReducibleModulus,
    VerificationFailed,
)

ORDER_CAP = 1 << 20
_BLOCK = 1 << 15  # powers per int64 product in the table doubling


def _prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


# ----- polynomial helpers over GF(p), coefficients ascending -----------

def _poly_trim(a: Sequence[int]) -> tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> tuple[int, ...]:
    # m is monic
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return _poly_trim(a[:dm])


def _poly_powmod(a: Sequence[int], e: int, m: Sequence[int], p: int) -> tuple[int, ...]:
    result: tuple[int, ...] = (1,)
    base = _poly_mod(a, m, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, p), m, p)
        base = _poly_mod(_poly_mul(base, base, p), m, p)
        e >>= 1
    return result


def _poly_is_irreducible(m: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(m)/2."""
    r = len(m) - 1
    if r <= 0:
        return False
    if r == 1:
        return True
    for d in range(1, r // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            div = lower + (1,)
            if not _poly_mod(m, div, p):
                return False
    return True


def _element_has_full_order(poly, modulus, p, n, n_factors) -> bool:
    if _poly_powmod(poly, n, modulus, p) != (1,):
        return False
    return all(_poly_powmod(poly, n // f, modulus, p) != (1,) for f in n_factors)


@functools.lru_cache(maxsize=None)
def _default_modulus(p: int, r: int) -> tuple[int, ...]:
    """Least monic irreducible of degree r with x primitive.

    Candidates are ordered lexicographically by the ascending coefficient
    tuple (c0, ..., c_{r-1}); the leading coefficient is pinned to 1.
    A primitive x has norm (-1)^r c0 generating GF(p)^*, so only those c0
    are tried.  The search is a fixed function of (p, r), so it runs once
    per pair.
    """
    n = p**r - 1
    n_factors = _prime_factors(n)
    for c0 in range(1, p):
        norm = (-1) ** r * c0 % p
        if all(pow(norm, (p - 1) // f, p) != 1 for f in _prime_factors(p - 1)):
            for rest in itertools.product(range(p), repeat=r - 1):
                mod = (c0, *rest, 1)
                if _poly_is_irreducible(mod, p) and _element_has_full_order(
                        (0, 1), mod, p, n, n_factors):
                    return mod
    raise ReducibleModulus(f"no primitive polynomial found for p={p}, r={r}")


class FieldCtx:
    """GF(p^r) with exp/log tables keyed by integer labels.

    The tables are kept once, as int64 arrays.  Scalar operations index
    them and return Python ints, which bitset code may shift safely."""

    def __init__(self, p: int, r: int, modulus: Optional[Sequence[int]] = None):
        if p < 3 or _prime_factors(p) != (p,):
            raise NonPrimeCharacteristic(f"characteristic must be an odd prime, got {p}")
        if r < 1:
            raise ValueError(f"extension degree must be >= 1, got {r}")
        order = p**r
        if order > ORDER_CAP:
            raise OverflowingOrder(f"p^r = {order} exceeds {ORDER_CAP}")

        if modulus is None:
            mod = _default_modulus(p, r)
        else:
            mod = tuple(int(c) % p for c in modulus)
            if len(mod) != r + 1 or mod[-1] != 1:
                raise ReducibleModulus(
                    f"modulus must be monic of degree {r}, got {list(modulus)}")
            if not _poly_is_irreducible(mod, p):
                raise ReducibleModulus(f"modulus {list(mod)} is reducible over GF({p})")

        self.p = p
        self.r = r
        self.order = order
        self.modulus = mod

        if modulus is None:  # _default_modulus certified x primitive
            gen_poly = _poly_mod((0, 1), mod, p)
        else:
            gen_poly = self._find_generator_poly()
        self.generator = self._label_of_poly(gen_poly)

        self._exp_array, self._log_array = self._build_tables(gen_poly)
        self._subfield: Optional[tuple[int, ...]] = None

    # ----- construction ------------------------------------------------

    def _find_generator_poly(self):
        # x first; otherwise the least label with full multiplicative order
        n = self.order - 1
        n_factors = _prime_factors(n)
        x = _poly_mod((0, 1), self.modulus, self.p)
        if _element_has_full_order(x, self.modulus, self.p, n, n_factors):
            return x
        for label in range(2, self.order):
            cand = self._poly_of_label(label)
            if _element_has_full_order(cand, self.modulus, self.p, n, n_factors):
                return cand
        raise ReducibleModulus("no generator found; modulus cannot be irreducible")

    def _poly_of_label(self, label: int) -> tuple[int, ...]:
        coeffs = []
        while label:
            label, c = divmod(label, self.p)
            coeffs.append(c)
        return tuple(coeffs)

    def _label_of_poly(self, poly: Sequence[int]) -> int:
        label = 0
        for c in reversed(poly):
            label = label * self.p + c
        return label

    def _build_tables(self, gen_poly):
        """exp[k] = g^k and its inverse, by doubling.  Multiplication by
        g is the r x r matrix M over GF(p) whose column j holds the
        coordinates of g x^j, so the coordinates of g^(k + 2^j) are
        M^(2^j) times those of g^k: each pass fills the next block of
        powers from the block already filled and squares the matrix.
        One bincount certifies that g^0 .. g^(n-1) are the n nonzero
        labels, once each, so the log table is well defined."""
        p, r, n = self.p, self.r, self.order - 1
        step = np.zeros((r, r), dtype=np.int64)  # M: column j holds g x^j
        for j in range(r):
            col = _poly_mod(_poly_mul(gen_poly, (0,) * j + (1,), p), self.modulus, p)
            step[:len(col), j] = col
        coords = np.zeros((r, n), dtype=np.min_scalar_type(p - 1))
        coords[0, 0] = 1
        filled = 1
        while filled < n:
            take = min(filled, n - filled)
            for lo in range(0, take, _BLOCK):  # bounds the int64 product
                hi = min(take, lo + _BLOCK)
                coords[:, filled + lo:filled + hi] = (step @ coords[:, lo:hi]) % p
            filled += take
            step = (step @ step) % p
        exp = np.zeros(n, dtype=np.int64)
        for row in coords[::-1]:  # labels are base-p, least digit first
            exp *= p
            exp += row
        if (np.bincount(exp, minlength=self.order)[1:] != 1).any():
            raise VerificationFailed(f"powers of generator {self.generator} repeat")
        log = np.zeros(self.order, dtype=np.int64)
        log[exp] = np.arange(n)
        return exp, log

    # ----- arithmetic on labels -----------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        lab, place = 0, 1
        while a or b:
            a, da = divmod(a, p)
            b, db = divmod(b, p)
            lab += (da + db) % p * place
            place *= p
        return lab

    def neg(self, a: int) -> int:
        """a * (-1); -1 = g^((p^r - 1) / 2) since p is odd."""
        return self.mul(a, self.gen_pow((self.order - 1) // 2))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def add_array(self, a, b) -> np.ndarray:
        """Elementwise sum of two broadcastable label arrays (or scalars),
        one base-p digit at a time; returns int64 labels."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.int64)
        place = 1
        for _ in range(self.r):
            out += (a // place + b // place) % self.p * place
            place *= self.p
        return out

    def mul_array(self, a, c: int) -> np.ndarray:
        """Elementwise product of a label array (or scalar) with the label
        c through the exp/log tables; returns int64 labels."""
        a = np.asarray(a, dtype=np.int64)
        if c == 0:
            return np.zeros_like(a)
        logs = self._log_array[a] + self._log_array[c]
        return np.where(a != 0, self._exp_array[logs % (self.order - 1)], 0)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.gen_pow(self._log_array[a] + self._log_array[b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self.gen_pow(-self._log_array[a])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        return self.gen_pow(int(self._log_array[a]) * e)

    def dlog(self, a: int) -> int:
        """Discrete log base the generator; LogOfZero on the zero element."""
        if a == 0:
            raise LogOfZero("dlog(0) is undefined")
        return int(self._log_array[a])

    def gen_pow(self, k: int) -> int:
        return int(self._exp_array[k % (self.order - 1)])

    # ----- quadratic-extension structure ---------------------------------

    @property
    def subfield_order(self) -> int:
        """q with order = q^2; requires even total degree."""
        if self.r % 2:
            raise OddDegreeField(f"degree {self.r} field has no square root order")
        return self.p ** (self.r // 2)

    def subfield_elements(self) -> tuple[int, ...]:
        """Sorted labels of the index-2 subfield F_q inside GF(q^2), cached:
        subfield_of_order(q), that is 0 and the q - 1 distinct powers
        g^(k (q + 1)), which x^q = x fixes."""
        if self._subfield is None:
            self._subfield = self.subfield_of_order(self.subfield_order)
        return self._subfield

    def subfield_of_order(self, m: int) -> tuple[int, ...]:
        """Sorted labels of the subfield with m elements, m = p^s, s | r."""
        if m < 2 or (self.order - 1) % (m - 1) != 0:
            raise NotProperSubfield(f"{m} does not divide into GF({self.order})")
        s = round(math.log(m, self.p))
        if self.p**s != m or self.r % s != 0:
            raise NotProperSubfield(f"{m} is not p^s with s | {self.r}")
        step = (self.order - 1) // (m - 1)
        return (0, *np.sort(self._exp_array[::step]).tolist())

    def coset_index(self, a: int) -> int:
        """Index in [0, q] of the F_q^* multiplicative coset containing a."""
        q = self.subfield_order
        return self.dlog(a) % (q + 1)

    def coset_elements(self, index: int) -> tuple[int, ...]:
        """Sorted labels of the coset g^index * F_q^*, size q - 1."""
        q = self.subfield_order
        if not 0 <= index <= q:
            raise IndexOutOfRange(f"coset index {index} outside [0, {q}]")
        return tuple(np.sort(self.coset_powers(index)).tolist())

    def coset_powers(self, index) -> np.ndarray:
        """g^(i + j (q + 1)) at [..., j] for j < q - 1, i = index or each
        i in an index array: the coset g^i F_q^* in order of the power
        h^j of h = g^(q + 1), one gather of the exp table."""
        step = self.subfield_order + 1
        i = np.asarray(index, dtype=np.int64)
        return self._exp_array[np.add.outer(i, np.arange(0, self.order - 1, step))]

    def __repr__(self):
        return f"FieldCtx(p={self.p}, r={self.r}, modulus={list(self.modulus)})"


def create(p: int, r: int, modulus: Optional[Sequence[int]] = None) -> FieldCtx:
    """Build GF(p^r).

    With no modulus, picks the lexicographically least monic irreducible
    (ascending coefficients) for which x is primitive, so the generator is
    the class of x and table contents are deterministic.  A user modulus
    is reduced mod p, verified irreducible, and the generator falls back
    to the least primitive label when x is not primitive.
    """
    return FieldCtx(p, r, modulus)
