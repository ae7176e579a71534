"""Field construction, table arithmetic, subfields, and coset indexing.

Expected constants below were computed once with an independent sympy
session (minimal polynomials, discrete logs) and frozen.
"""

import itertools
import random
from itertools import product

import numpy as np
import pytest

from peisert import create
from peisert.errors import (
    IndexOutOfRange,
    LogOfZero,
    NonPrimeCharacteristic,
    NotProperSubfield,
    OddDegreeField,
    OverflowingOrder,
    ReducibleModulus,
)
from peisert.field import (
    _default_modulus,
    _element_has_full_order,
    _poly_is_irreducible,
    _prime_factors,
)
from peisert.survey import ambient_field, field_params
from test_ekr import run_optimized

SMALL_FIELDS = [(3, 2), (5, 2), (3, 3), (3, 4), (7, 2), (11, 2)]


# frozen: first irreducible polynomial with x primitive, ascending
# coefficient order, constant term first
DEFAULT_MODULI = {
    (3, 1): (1, 1),        # x + 1, generator 2
    (3, 2): (2, 1, 1),     # x^2 + x + 2
    (5, 2): (2, 1, 1),
    (3, 4): (2, 0, 0, 1, 1),
    (5, 4): (2, 0, 2, 1, 1),
}


def test_default_moduli_frozen():
    for (p, r), want in DEFAULT_MODULI.items():
        assert create(p, r).modulus == want


def test_default_modulus_memoised():
    # each pair is searched once; the cached value is the search's, for
    # the field of order q and for the ambient field of order q^2
    for q in (3, 5, 7, 9, 25, 27, 49):
        p, r = field_params(q)
        for degree in (r, 2 * r):
            cached = _default_modulus(p, degree)
            assert cached == _default_modulus.__wrapped__(p, degree)
            assert _default_modulus(p, degree) is cached
        assert ambient_field(q).modulus == _default_modulus(p, 2 * r)


def unfiltered_default_modulus(p, r):
    """Oracle: the least monic irreducible of degree r with x primitive,
    trying every candidate with a nonzero constant term in order."""
    n = p**r - 1
    for lower in itertools.product(range(p), repeat=r):
        mod = lower + (1,)
        if lower[0] and _poly_is_irreducible(mod, p) and _element_has_full_order(
                (0, 1), mod, p, n, _prime_factors(n)):
            return mod


def test_norm_filter_keeps_the_least_primitive_modulus():
    pairs = [(p, r) for p in (3, 5, 7, 11, 13) for r in range(1, 7) if p**r <= 3**8]
    assert len(pairs) == 21
    for p, r in pairs:
        assert _default_modulus.__wrapped__(p, r) == unfiltered_default_modulus(p, r), (p, r)
    # the unfiltered search takes about 24 s here, trial-dividing every c0 = 1 candidate
    assert _default_modulus.__wrapped__(7, 6) == (3, 0, 0, 0, 1, 1, 1)


def test_prime_field_tables():
    ctx = create(3, 1)
    assert ctx.order == 3
    assert ctx.generator == 2
    assert ctx.dlog(2) == 1
    assert ctx.add(2, 2) == 1
    assert ctx.mul(2, 2) == 1


def test_gf9_known_values():
    ctx = create(3, 2)
    assert ctx.order == 9
    assert ctx.generator == 3  # the class of x
    # x^2 = -x - 2 = 2x + 1 -> label 2*3 + 1
    assert ctx.mul(3, 3) == 7
    assert ctx.gen_pow(8) == 1
    assert ctx.subfield_order == 3
    assert ctx.subfield_elements() == (0, 1, 2)


def test_gf81_pinned_modulus():
    # x^4 - x^3 - 1; the case-study presentation
    ctx = create(3, 4, (-1, 0, 0, -1, 1))
    assert ctx.modulus == (2, 0, 0, 2, 1)
    assert ctx.generator == 3
    assert ctx.gen_pow(80) == 1
    assert ctx.coset_index(ctx.gen_pow(13)) == 3
    sub = ctx.subfield_elements()
    assert len(sub) == 9
    # F_9 inside GF(81) is exactly the fixed set of x -> x^9
    for t in range(ctx.order):
        assert (ctx.pow(t, 9) == t) == (t in sub)


def test_gf25_negative_one():
    ctx = create(5, 2)
    assert ctx.generator == 5
    assert ctx.gen_pow(12) == 4  # g^(q^2-1)/2 = -1
    assert ctx.dlog(4) == 12


@pytest.mark.parametrize("p,r", SMALL_FIELDS)
def test_field_axioms(p, r):
    ctx = create(p, r)
    rng = random.Random(1000 * p + r)
    elems = range(ctx.order)
    for _ in range(200):
        a, b, c = rng.choice(elems), rng.choice(elems), rng.choice(elems)
        assert ctx.add(a, b) == ctx.add(b, a)
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        assert ctx.add(a, ctx.neg(a)) == 0
        assert ctx.sub(a, b) == ctx.add(a, ctx.neg(b))
        if a != 0:
            assert ctx.mul(a, ctx.inv(a)) == 1
            assert ctx.div(b, a) == ctx.mul(b, ctx.inv(a))
    # the array addition against the scalar one, broadcast both ways
    labels = np.arange(ctx.order)
    assert ctx.add_array(labels[:, None], labels[:5]).tolist() == [
        [ctx.add(a, b) for b in range(5)] for a in elems]
    assert ctx.add_array(7 % ctx.order, labels).tolist() == [ctx.add(7 % ctx.order, b) for b in elems]


# ----- oracle: polynomial arithmetic on coordinate vectors ---------------

def _coords(label, p, r):
    out = []
    for _ in range(r):
        label, c = divmod(label, p)
        out.append(c)
    return out


def _label(coeffs, p):
    return sum(c * p**i for i, c in enumerate(coeffs))


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_mod(a, modulus, p):
    # modulus is monic, ascending
    a = list(a)
    d = len(modulus) - 1
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i]
        for j in range(d + 1):
            a[i - d + j] = (a[i - d + j] - c * modulus[j]) % p
    return a[:d]


def _assert_matches_polynomials(ctx, pairs):
    p, r = ctx.p, ctx.r
    for a, b in pairs:
        ca, cb = _coords(a, p, r), _coords(b, p, r)
        assert ctx.add(a, b) == _label([(x + y) % p for x, y in zip(ca, cb)], p)
        assert ctx.sub(a, b) == _label([(x - y) % p for x, y in zip(ca, cb)], p)
        assert ctx.neg(b) == _label([-y % p for y in cb], p)
    by_c = {}
    for a, c in pairs:
        by_c.setdefault(c, []).append(a)
    for c, column in by_c.items():
        cc = _coords(c, p, r)
        want = [_label(_poly_mod(_poly_mul(_coords(a, p, r), cc, p), ctx.modulus, p), p)
                for a in column]
        assert ctx.mul_array(column, c).tolist() == want


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_arithmetic_matches_polynomials_on_all_pairs(q):
    ctx = ambient_field(q)  # orders 9, 25, 49, 81
    _assert_matches_polynomials(ctx, list(product(range(ctx.order), repeat=2)))
    labels = np.arange(ctx.order)
    assert ctx.mul_array(labels, 0).tolist() == [0] * ctx.order
    assert ctx.mul_array(labels.reshape(-1, 1)[:4], 1).tolist() == [[0], [1], [2], [3]]


def test_arithmetic_matches_polynomials_at_7_6():
    # 7^6 = 117,649 labels, above any small-table shortcut; the modulus
    # is passed in to skip the default search
    ctx = create(7, 6, (3, 0, 0, 0, 1, 1, 1))
    rng = random.Random(76)
    pairs = [(rng.randrange(ctx.order), rng.randrange(ctx.order)) for _ in range(3000)]
    pairs += [(a, 12345) for a, _ in pairs[:1000]]  # one multiplier on a whole array
    pairs += [(0, 5), (5, 0), (ctx.order - 1, ctx.order - 1)]
    _assert_matches_polynomials(ctx, pairs)


@pytest.mark.parametrize("p,r", SMALL_FIELDS)
def test_exp_log_bijection(p, r):
    ctx = create(p, r)
    n = ctx.order
    seen = set()
    for k in range(n - 1):
        t = ctx.gen_pow(k)
        assert ctx.dlog(t) == k
        seen.add(t)
    assert seen == set(range(1, n))
    assert ctx.gen_pow(n - 1) == 1


def test_pow_matches_repeated_multiplication():
    ctx = create(3, 2)
    for t in range(1, ctx.order):
        acc = 1
        for e in range(6):
            assert ctx.pow(t, e) == acc
            acc = ctx.mul(acc, t)
    assert ctx.pow(0, 0) == 1
    assert ctx.pow(0, 5) == 0


def test_subfield_is_a_field():
    ctx = create(3, 4)
    sub = set(ctx.subfield_elements())
    for a, b in product(sub, repeat=2):
        assert ctx.add(a, b) in sub
        assert ctx.mul(a, b) in sub
        if a != 0:
            assert ctx.inv(a) in sub


def test_subfield_of_order():
    ctx = create(3, 4)
    assert set(ctx.subfield_of_order(3)) <= set(ctx.subfield_elements())
    assert len(ctx.subfield_of_order(3)) == 3
    assert ctx.subfield_of_order(9) == ctx.subfield_elements()
    assert len(ctx.subfield_of_order(81)) == 81  # the whole field counts
    with pytest.raises(NotProperSubfield):
        ctx.subfield_of_order(4)  # wrong characteristic
    with pytest.raises(NotProperSubfield):
        ctx.subfield_of_order(27)  # 3 does not divide r = 4


def test_odd_degree_has_no_square_root_subfield():
    ctx = create(3, 3)
    with pytest.raises(OddDegreeField):
        _ = ctx.subfield_order


@pytest.mark.parametrize("p,r", [(3, 2), (5, 2), (3, 4)])
def test_coset_partition(p, r):
    ctx = create(p, r)
    q = ctx.subfield_order
    buckets = {}
    for t in range(1, ctx.order):
        i = ctx.coset_index(t)
        assert i == ctx.dlog(t) % (q + 1)
        buckets.setdefault(i, set()).add(t)
    assert sorted(buckets) == list(range(q + 1))
    for i, bucket in buckets.items():
        assert len(bucket) == q - 1
        assert bucket == set(ctx.coset_elements(i))
    # coset 0 is the nonzero subfield
    assert buckets[0] == set(ctx.subfield_elements()) - {0}


COSET_RANGE_SCRIPT = """
from peisert import create
from peisert.errors import IndexOutOfRange
print("debug", __debug__)
ctx = create(3, 2)
print(len(ctx.coset_elements(0)), len(ctx.coset_elements(3)))
for index in (-1, 4):
    try:
        ctx.coset_elements(index)
        print("accepted", index)
    except IndexOutOfRange as e:
        print("rejected", e)
"""


def test_coset_index_out_of_range_rejected_under_optimize():
    assert run_optimized(COSET_RANGE_SCRIPT) == [
        "2 2",
        "rejected coset index -1 outside [0, 3]",
        "rejected coset index 4 outside [0, 3]",
    ]
    with pytest.raises(IndexOutOfRange):
        create(5, 2).coset_elements(6)


def test_coset_closed_under_subfield_scaling():
    ctx = create(3, 4)
    sub = [t for t in ctx.subfield_elements() if t != 0]
    rng = random.Random(7)
    for _ in range(100):
        t = rng.randrange(1, ctx.order)
        s = rng.choice(sub)
        assert ctx.coset_index(ctx.mul(s, t)) == ctx.coset_index(t)


def test_explicit_modulus_must_be_irreducible():
    # x^2 - 1 factors as (x-1)(x+1)
    with pytest.raises(ReducibleModulus):
        create(3, 2, (2, 0, 1))
    with pytest.raises(ReducibleModulus):
        create(3, 2, (0, 1, 1))  # zero constant term


def test_nonprimitive_x_falls_back_to_least_primitive():
    # x^2 + 1 over GF(3) is irreducible but x has order 4
    ctx = create(3, 2, (1, 0, 1))
    assert ctx.generator == 4
    assert ctx.gen_pow(4) == 2  # g^4 = -1, so g really has order 8
    assert sorted(ctx.gen_pow(k) for k in range(8)) == list(range(1, 9))


def test_bad_inputs():
    for p in (-3, 0, 1, 2, 4, 9, 15):  # 2: the constructions need odd order
        with pytest.raises(NonPrimeCharacteristic):
            create(p, 2)
    for q in (0, 1, 6, 12):
        with pytest.raises(ValueError, match=f"q = {q} is not a prime power"):
            field_params(q)
    assert [field_params(q) for q in (3, 9, 25, 27, 49, 81, 3**12)] == [
        (3, 1), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (3, 12)]
    with pytest.raises(OverflowingOrder):
        create(3, 13)  # 3^13 > 2^20
    ctx = create(3, 2)
    with pytest.raises(LogOfZero):
        ctx.dlog(0)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)
    with pytest.raises(ZeroDivisionError):
        ctx.div(1, 0)


@pytest.mark.parametrize("p,r,modulus", [(p, r, None) for p, r in SMALL_FIELDS] + [
    (3, 2, (1, 0, 1)),  # x has order 4; the generator is label 4
    (5, 2, (2, 0, 1)),  # x^2 + 2: x has order 8 of 24
    (3, 4, (2, 0, 1, 0, 1)),  # x^4 + x^2 + 2: x has order 16 of 80
])
def test_exp_log_tables_match_polynomial_walk(p, r, modulus):
    """The doubled tables equal the walk g^0, g^1, ... by polynomial
    multiplication, also when the generator is not the class of x."""
    ctx = create(p, r, modulus)
    gen = _coords(ctx.generator, p, r)
    cur, exp = _coords(1, p, r), []
    for _ in range(ctx.order - 1):
        exp.append(_label(cur, p))
        cur = _poly_mod(_poly_mul(cur, gen, p), ctx.modulus, p)
    if ctx._exp_array.tolist() != exp or _label(cur, p) != 1:
        pytest.fail(f"exp table of {ctx} differs from the polynomial walk")
    log = [0] * ctx.order
    for k, t in enumerate(exp):
        log[t] = k
    if ctx._log_array.tolist() != log:
        pytest.fail(f"log table of {ctx} differs from the polynomial walk")


def test_scalar_operations_return_python_ints():
    """A numpy integer shifted into a bitset (1 << v) would overflow
    silently, so every scalar operation hands back a Python int."""
    ctx = create(3, 4)
    for a, b in ((5, 7), (1, 80), (2, 2)):
        for value in (ctx.add(a, b), ctx.sub(a, b), ctx.mul(a, b), ctx.div(a, b), ctx.neg(a),
                      ctx.inv(a), ctx.pow(a, 3), ctx.pow(a, -2), ctx.gen_pow(a), ctx.dlog(a),
                      ctx.coset_index(a)):
            assert type(value) is int, (a, b, value)
    assert {type(x) for x in ctx.coset_elements(1) + ctx.subfield_elements()} == {int}


RSS_SCRIPT = """
import resource
from peisert import create
print("debug", __debug__)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
create(3, 12, (2, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 1))
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""


def test_table_doubling_peak_memory_at_3_12():
    """GF(3^12), 531,441 labels: the peak grows by the exp/log lists and
    arrays and little more (49 MB with blocked int64 products; the
    polynomial walk grew 52.7 MB, an int64-concatenating doubling far
    more).  The modulus is pinned: the default search at this degree
    runs for minutes."""
    growth = float(run_optimized(RSS_SCRIPT)[0])
    if growth > 52:
        pytest.fail(f"create(3, 12) raised peak RSS by {growth:.1f} MB")
