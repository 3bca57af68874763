"""Oracle values, the closed form, the recurrence and their cross-checks.

Frozen expected values were computed by hand from antiderivatives, e.g.
integral_0^1 (x-1/2)^2 dx = 1/12 and integral_0^1 (x-1/2)^4 dx = 2*(1/2)^5/5
= 1/80, or from the two-factor value (-1)^(k-1) k! l! / (k+l)! B_{k+l}.
"""

import inspect
import itertools
import math
import random
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bernint import (
    DEFAULT_CACHE,
    BernoulliCache,
    bernoulli_number,
    bernoulli_polynomial,
    c_term,
    closed_form_integral,
    closed_form_integral_poly,
    norlund_value,
    oracle_integral,
    oracle_integral_poly,
    recurrence_integral,
    recurrence_residual_indices,
    three_factor_at_one,
    three_factor_formula,
    two_factor_formula,
)
import bernint
from bernint import exact, integrals, kernels, verify
from bernint.bernoulli import Polynomial

F = Fraction

UPPERS = (F(1), F(1, 2), F(2), F(-1, 3))

# hand-derived ground truth for integral_0^1 of the product
KNOWN_AT_ONE = {
    (1, 1): F(1, 12),
    (2, 2): F(1, 180),
    (1, 1, 2): F(1, 180),
    (2, 2, 2): F(1, 3780),
    (1, 1, 1, 1): F(1, 80),
    (1, 1, 1, 3): F(-1, 1120),
    (1, 1, 1, 5): F(1, 2520),
    (1, 1, 2, 2): F(11, 15120),
    (1, 1, 2, 4): F(-1, 5400),
}


class TestOracle:
    def test_known_values(self):
        for ks, want in KNOWN_AT_ONE.items():
            assert oracle_integral(ks) == want, ks

    def test_product_of_constants(self):
        x0 = F(-3, 7)
        assert oracle_integral((0, 0, 0), x0) == x0

    def test_matches_direct_polynomial_expansion(self):
        # definition spelled out longhand: poly product then termwise integral
        for ks in [(1, 1), (2, 3), (1, 2, 3), (0, 4, 1, 2)]:
            product = Polynomial([1])
            for k in ks:
                product = product * bernoulli_polynomial(k)
            for upper in UPPERS:
                assert oracle_integral(ks, upper) == product.integrate(0, upper)

    def test_poly_form(self):
        assert oracle_integral_poly((1, 1)) == Polynomial([0, F(1, 4), F(-1, 2), F(1, 3)])
        assert oracle_integral_poly((0,)) == Polynomial([0, 1])
        # (B_3(x) - B_3)/3 with B_3 = 0
        assert oracle_integral_poly((2,)) == Polynomial([0, F(1, 6), F(-1, 2), F(1, 3)])

    def test_poly_evaluates_to_integral(self):
        for ks in [(1,), (2, 2), (1, 2, 3)]:
            anti = oracle_integral_poly(ks)
            assert anti(0) == 0
            for upper in UPPERS:
                assert anti(upper) == oracle_integral(ks, upper)

    def test_oracle_cache_is_bounded(self):
        cache = BernoulliCache()
        bound = integrals._ORACLE_MEMO
        side = math.isqrt(bound + 40) + 1
        for ks in itertools.islice(itertools.product(range(side), repeat=2), bound + 40):
            assert oracle_integral_poly(ks, cache) is oracle_integral_poly(ks, cache)
        assert integrals._oracle_poly_cached.cache_info().currsize == bound
        assert oracle_integral_poly((7, 3), cache) == oracle_integral_poly((7, 3), BernoulliCache())

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            oracle_integral(())
        with pytest.raises(ValueError):
            oracle_integral((1, -2))


class TestCTerm:
    def test_known_zeros(self):
        assert c_term((1, 1), 1) == 0
        assert c_term((0,), F(9, 5)) == 0
        assert c_term((2,), 1) == 0

    def test_generic_value(self):
        # C_{1,2}(x) = B_1(x)B_2(x) - B_1 B_2 at x = 2: (3/2)(13/6) + 1/12
        assert c_term((1, 2), 2) == F(3, 2) * F(13, 6) + F(1, 12)

    def test_scaled(self):
        ks = (2, 3, 1)
        scale = math.factorial(2) * math.factorial(3)
        assert c_term(ks, 2, scaled=True) * scale == c_term(ks, 2)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            c_term((1, -1), 1)


class TestClosedForm:
    def test_known_values(self):
        for ks, want in KNOWN_AT_ONE.items():
            assert closed_form_integral(ks) == want, ks

    def test_all_zero_tuple(self):
        x0 = F(4, 9)
        for r in range(1, 6):
            assert closed_form_integral((0,) * r, x0) == x0

    def test_single_factor_reduces_to_antiderivative(self):
        for k in range(8):
            for upper in UPPERS:
                b_next = bernoulli_polynomial(k + 1)
                want = (b_next(upper) - b_next(0)) / (k + 1)
                assert closed_form_integral((k,), upper) == want

    def test_matches_oracle_sweep(self):
        for r in (2, 3, 4):
            for ks in itertools.product(range(4), repeat=r):
                anti = oracle_integral_poly(ks)
                for upper in UPPERS:
                    assert closed_form_integral(ks, upper) == anti(upper), (ks, upper)

    def test_scaled_flag(self):
        ks = (2, 3, 1)
        scale = math.factorial(2) * math.factorial(3)
        for upper in UPPERS:
            scaled = closed_form_integral(ks, upper, scaled=True)
            assert scaled * scale == closed_form_integral(ks, upper)

    def test_poly_form(self):
        assert closed_form_integral_poly((1, 1)) == Polynomial(
            [0, F(1, 4), F(-1, 2), F(1, 3)]
        )
        assert closed_form_integral_poly((0,)) == Polynomial([0, 1])
        got = closed_form_integral_poly((1, 2, 3))
        assert got.degree == 7
        assert got == oracle_integral_poly((1, 2, 3))

    def test_poly_form_sweep(self):
        for r in (1, 2, 3):
            for ks in itertools.product(range(3), repeat=r):
                assert closed_form_integral_poly(ks) == oracle_integral_poly(ks), ks

    def test_poly_form_of_each_order(self):
        for perm in itertools.permutations((5, 0, 3)):
            assert closed_form_integral_poly(perm) == oracle_integral_poly(perm), perm

    def test_kernel_takes_the_indices_ascending(self, monkeypatch):
        seen = []
        kernel = kernels.closed_form_sum

        def spy(ks, *tables):
            seen.append(ks)
            return kernel(ks, *tables)

        monkeypatch.setattr(kernels, "closed_form_sum", spy)
        shapes = [(5, 0, 3), (9, 1), (2, 2, 1), (0, 7, 0, 4), (3,)]
        for ks in shapes:
            assert closed_form_integral(ks, F(2, 3)) == oracle_integral(ks, F(2, 3)), ks
        assert seen == [tuple(sorted(ks)) for ks in shapes]
        # the symmetry checks rely on the in-order evaluation keeping the order
        seen.clear()
        assert integrals._closed_form_in_order((5, 0, 3), F(2, 3)) == oracle_integral(
            (5, 0, 3), F(2, 3)
        )
        assert seen == [(5, 0, 3)]


class TestRecurrence:
    def test_single_step_equals_closed_form(self):
        assert recurrence_integral((1, 1), 1, mu=1) == F(1, 12)

    def test_residual_vanishes_at_max_depth(self):
        assert recurrence_residual_indices((1, 1), 2) == []
        assert recurrence_residual_indices((2, 3, 1), 6) == []
        assert recurrence_residual_indices((2, 3, 1), 5) != []

    def test_depth_independence(self):
        ks = (2, 3, 1)
        want = closed_form_integral(ks, 1, scaled=True)
        for mu in range(1, 7):
            assert recurrence_integral(ks, 1, mu) == want, mu

    def test_depth_independence_off_unit_interval(self):
        ks = (1, 2, 2)
        upper = F(-1, 3)
        want = closed_form_integral(ks, upper, scaled=True)
        for mu in range(1, sum(ks[:-1]) + 2):
            assert recurrence_integral(ks, upper, mu) == want

    def test_single_factor_any_depth(self):
        for mu in (1, 2, 5):
            assert recurrence_integral((3,), F(1, 2), mu) == closed_form_integral(
                (3,), F(1, 2), scaled=True
            )

    @staticmethod
    def count_enumerated(monkeypatch, limit):
        """Count the compositions the recurrence enumerates; fail past `limit`."""
        enumerated = [0]
        box_compositions = exact.compositions

        def counted(total, caps):
            for comp in box_compositions(total, caps):
                enumerated[0] += 1
                if enumerated[0] > limit:
                    raise AssertionError(f"more than {limit:,} compositions enumerated")
                yield comp

        monkeypatch.setattr(exact, "compositions", counted)
        return enumerated

    def test_depth_past_the_box_enumerates_nothing_more(self, monkeypatch):
        # no composition of a > k_1 + ... + k_{r-1} fits in the box, so any
        # mu past it costs what mu = k_1 + ... + k_{r-1} + 1 costs
        self.count_enumerated(monkeypatch, 10_000)
        ks, upper = (1, 1, 1, 1, 2), F(2, 3)
        want = closed_form_integral(ks, upper, scaled=True)
        assert recurrence_integral(ks, upper, mu=10**6) == want
        assert recurrence_residual_indices(ks, 10**6) == []

    @pytest.mark.parametrize("ks", [(12, 0, 0, 0, 0, 0, 1), (12, 1, 1, 1, 1, 1, 1), (3, 0, 2, 1)])
    def test_walks_only_the_box(self, monkeypatch, ks):
        # every composition of a = 0..k_1+...+k_{r-1} outside the box has
        # weight 0; enumerating them cost (12,1,1,1,1,1,1) 100,947 tuples
        # for its 416 cells
        cells = math.prod(k + 1 for k in ks[:-1])
        enumerated = self.count_enumerated(monkeypatch, cells)
        mu = sum(ks[:-1]) + 1
        want = closed_form_integral(ks, F(2, 3), scaled=True)
        assert recurrence_integral(ks, F(2, 3), mu) == want
        assert enumerated[0] == cells

    def test_box_walk_skips_what_cannot_fit(self):
        # one of the 324,632 compositions of 5 into 31 parts is in the box;
        # filtering them all takes about 3 s, the box walk well under 1 ms
        start = time.perf_counter()
        caps = (0,) * 30 + (5,)
        assert list(exact.compositions(5, caps)) == [caps]
        assert time.perf_counter() - start < 0.5

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            recurrence_integral((1, 1), 1, mu=0)
        with pytest.raises(ValueError):
            recurrence_residual_indices((1, 1), 0)


class TestEmptyInterval:
    def test_integral_from_zero_to_zero_vanishes(self):
        for ks in [(0,), (3,), (1, 2), (2, 2, 2)]:
            assert closed_form_integral(ks, 0) == 0
            assert oracle_integral(ks, 0) == 0
            assert recurrence_integral(ks, 0, mu=1) == 0


class TestConcurrency:
    def test_parallel_evaluation_with_cold_tables(self):
        upper = F(7, 11)  # not used elsewhere, so the value tables grow here
        work = [
            ks
            for r in (1, 2, 3)
            for ks in itertools.product(range(4), repeat=r)
        ]
        results: dict = {}
        errors = []

        def worker(chunk):
            try:
                for ks in chunk:
                    results[ks] = closed_form_integral(ks, upper)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        chunks = [work[i::6] for i in range(6)]
        threads = [threading.Thread(target=worker, args=(c,)) for c in chunks]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for ks in work:
            assert results[ks] == oracle_integral_poly(ks)(upper), ks

    @pytest.mark.parametrize("growing", ["upper", "zero"])
    def test_reader_never_sees_a_half_appended_table_entry(self, monkeypatch, growing):
        # A reader runs wherever a grower holds the lock with a table half
        # done: after building the new entries aside, and after each in-place
        # extension (numerators, then denominators).  The reader must get
        # complete tables, old or new, or go for the lock, which the grower
        # holds, so here it finds the lock taken.
        upper = F(5, 9)
        seen = []

        class LockTaken(Exception):
            pass

        class TryLock:
            def __init__(self):
                self.lock = threading.Lock()

            def __enter__(self):
                if not self.lock.acquire(blocking=False):
                    raise LockTaken

            def __exit__(self, *exc):
                self.lock.release()

        def read(where):
            for n in range(13):
                try:
                    tables = integrals._scaled_tables(upper, n, DEFAULT_CACHE)
                except LockTaken:
                    seen.append((where, n, "waits"))
                else:
                    seen.append((where, n, all(len(t) > n for t in tables)))

        class ReadingList(list):
            def extend(self, values):
                super().extend(values)
                read("extended")

        build = integrals._taylor_table

        def reading_build(*args):
            out = build(*args)
            read("built")
            return out

        def table(x, n):
            return tuple(ReadingList(part) for part in build(x, n, DEFAULT_CACHE))

        # the growing table holds k <= 5 and grows to k <= 12; the other is long
        short_at = {"upper": upper, "zero": F(0)}[growing]
        zero = table(F(0), 5 if growing == "zero" else 20)
        at_upper = table(upper, 5 if growing == "upper" else 20)
        monkeypatch.setattr(integrals, "_TABLE_LOCK", TryLock())
        monkeypatch.setattr(integrals, "_taylor_table", reading_build)
        monkeypatch.setattr(integrals, "_zero_table", zero)
        monkeypatch.setattr(integrals, "_tables_at", {upper: at_upper})
        integrals._scaled_tables(upper, 12, DEFAULT_CACHE)
        # (where, m): complete tables for n <= m, the lock for larger n
        steps = (("built", 5), ("extended", 5), ("extended", 12))
        assert seen == [(w, n, True if n <= m else "waits") for w, m in steps for n in range(13)]
        grown = zero if growing == "zero" else at_upper
        assert [F(a, b) for a, b in zip(*grown)] == [
            bernoulli_polynomial(k)(short_at) / math.factorial(k) for k in range(13)
        ]

    @pytest.mark.parametrize("upper", [F(0), F(2, 3), F(-31, 37)])
    def test_table_grown_in_steps_equals_one_build(self, monkeypatch, upper):
        # entries from different growths agree, and each denominator divides
        # the next, so dens[n] is a common denominator of entries 0..n
        monkeypatch.setattr(integrals, "_zero_table", ([], []))
        monkeypatch.setattr(integrals, "_tables_at", {})
        for n in (3, 17, 40):
            nums, dens, _, _ = integrals._scaled_tables(upper, n, DEFAULT_CACHE)
        assert (nums, dens) == integrals._taylor_table(upper, 40, DEFAULT_CACHE)
        assert all(dens[k + 1] % dens[k] == 0 for k in range(40))

    def test_table_at_zero_is_the_zero_table(self, monkeypatch):
        monkeypatch.setattr(integrals, "_tables_at", {})
        assert closed_form_integral((2, 3), 0) == 0
        assert integrals._tables_at == {}

    def test_growth_under_fast_thread_switching(self, monkeypatch):
        # More threads than cores grow the zero table (also read as the
        # table at 0), the tables at two uppers and a fresh cache's Bernoulli
        # numbers at once, switching as often as the interpreter allows;
        # every read must be whole and exact.
        monkeypatch.setattr(integrals, "_zero_table", ([], []))
        monkeypatch.setattr(integrals, "_tables_at", {})
        cache = BernoulliCache()
        points = (F(3, 13), F(-8, 5), F(0))
        want = {
            x: [bernoulli_polynomial(k)(x) / math.factorial(k) for k in range(61)]
            for x in points
        }
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(40):
                    upper, n = rng.choice(points), rng.randint(0, 60)
                    xnum, xden, onum, oden = integrals._scaled_tables(upper, n, cache)
                    assert min(len(xnum), len(xden), len(onum), len(oden)) > n
                    k = rng.randint(0, n)
                    assert F(xnum[k], xden[k]) == want[upper][k], (upper, k)
                    assert F(onum[k], oden[k]) == want[F(0)][k], k
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[0]


class TestCacheScope:
    """A BernoulliCache scopes the polynomial memo and the oracle memo only.

    The value tables, the closed form and the formulas read DEFAULT_CACHE.
    """

    # the public callables that take a cache: each reads a per-cache memo,
    # or passes its cache to one that does
    TAKE_A_CACHE = {
        bernint: {
            "bernoulli_number",
            "bernoulli_polynomial",
            "closed_form_integral_poly",
            "oracle_integral",
            "oracle_integral_poly",
            "recurrence_integral",
        },
        verify: {
            "evaluate_table_expression",
            "verify_carlitz4",
            "verify_identities",
            "verify_mu",
            "verify_oracle",
            "verify_parity",
            "verify_table",
        },
    }

    @pytest.mark.parametrize("module", [bernint, verify], ids=["bernint", "verify"])
    def test_which_functions_take_a_cache(self, module):
        takes = {
            name
            for name in module.__all__
            if callable(obj := getattr(module, name))
            and "cache" in inspect.signature(obj).parameters
        }
        assert takes == self.TAKE_A_CACHE[module]

    def test_the_tables_do_not_grow_a_callers_cache(self, monkeypatch):
        # from cold tables the closed form and the formulas grow the tables
        # up to index 10 here; the caller's cache is read only as far as the
        # oracle polynomials need, B_4
        monkeypatch.setattr(integrals, "_zero_table", ([], []))
        monkeypatch.setattr(integrals, "_tables_at", {})
        cache = BernoulliCache()
        number, read = cache.number, []

        def spy(k):
            read.append(k)
            return number(k)

        cache.number = spy
        report = verify.verify_oracle(max_sum=4, max_r=2, cache=cache)
        assert report.ok and report.attempted == (5 + 15) * 4
        assert max(read) == 4
        assert len(integrals._zero_table[0]) > 5  # the tables did grow


class TestParity:
    def test_odd_sum_vanishes_at_one(self):
        for r in range(1, 5):
            for ks in itertools.product(range(4), repeat=r):
                if sum(ks) % 2 == 1:
                    assert oracle_integral(ks) == 0, ks
                    assert closed_form_integral(ks) == 0, ks

    def test_odd_sum_does_not_vanish_elsewhere(self):
        assert oracle_integral((1,), F(1, 3)) != 0


class TestPermutationSymmetry:
    def test_closed_form_invariant(self):
        for base in [(1, 2), (0, 3, 1), (2, 2, 1, 0), (1, 2, 3)]:
            for upper in (F(1), F(2, 3)):
                want = closed_form_integral(base, upper)
                # closed_form_integral sorts its indices; evaluate each order as given
                for perm in set(itertools.permutations(base)):
                    assert integrals._closed_form_in_order(perm, upper) == want, (perm, upper)


class TestInputContract:
    # every public entry point that takes an upper limit
    UPPER_CALLS = {
        "oracle_integral": lambda u: oracle_integral((2, 2), u),
        "c_term": lambda u: c_term((2, 2), u),
        "closed_form_integral": lambda u: closed_form_integral((2, 2), u),
        "recurrence_integral": lambda u: recurrence_integral((2, 2), u),
        "two_factor_formula": lambda u: two_factor_formula(2, 2, u),
        "three_factor_formula": lambda u: three_factor_formula(2, 2, 2, u),
    }

    @pytest.mark.parametrize("upper", [0.1, True], ids=["float", "bool"])
    @pytest.mark.parametrize("entry", sorted(UPPER_CALLS))
    def test_upper_must_be_int_or_fraction(self, entry, upper):
        # Fraction(0.1) is the binary float, 3602879701896397/2**55, not 1/10
        with pytest.raises(ValueError, match="upper limit"):
            self.UPPER_CALLS[entry](upper)

    @pytest.mark.parametrize("ks", [(True, 2), (2.0, 2)], ids=["bool", "float"])
    def test_indices_must_be_ints(self, ks):
        for entry in (oracle_integral, c_term, closed_form_integral):
            with pytest.raises(ValueError, match="nonnegative ints"):
                entry(ks)
        with pytest.raises(ValueError, match="nonnegative ints"):
            norlund_value(*ks)
        with pytest.raises(ValueError, match="nonnegative ints"):
            three_factor_at_one(*ks, 2)
        with pytest.raises(ValueError, match="nonnegative ints"):
            two_factor_formula(*ks)
        with pytest.raises(ValueError, match="nonnegative ints"):
            three_factor_formula(*ks, 2)

    @pytest.mark.parametrize("mu", [True, 1.5], ids=["bool", "float"])
    def test_mu_must_be_an_int(self, mu):
        with pytest.raises(ValueError, match="mu must be an int"):
            recurrence_integral((2, 2), 1, mu=mu)
        with pytest.raises(ValueError, match="mu must be an int"):
            recurrence_residual_indices((2, 2), mu)

    def test_polynomial_evaluation_rejects_float(self):
        # the value of an oracle polynomial, like the integrals, takes no float
        with pytest.raises(ValueError, match="upper limit"):
            oracle_integral_poly((2, 2))(0.1)


index_tuples = st.lists(st.integers(0, 12), min_size=1, max_size=6).map(tuple)
long_index_tuples = st.lists(st.integers(0, 10), min_size=1, max_size=8).map(tuple)
rational_uppers = st.builds(F, st.integers(-24, 24), st.integers(1, 12))
# a zero, a small, a large and up to two more indices: every order of such a
# tuple is a different head product for the in-order closed form
spread_with_zero = st.tuples(
    st.integers(1, 3), st.integers(10, 24), st.lists(st.integers(0, 12), max_size=2)
).map(lambda t: (0, t[0], t[1], *t[2]))
table_uppers = st.one_of(
    st.sampled_from([F(0), F(1), F(-1), F(2), F(-3)]),
    st.builds(F, st.integers(-80, 80), st.integers(1, 40)),
)
bounded = settings(derandomize=True, database=None, max_examples=100, deadline=None)


class TestProperties:
    """Random tuples and uppers beyond the exhaustive sweeps' box."""

    @bounded
    @given(index_tuples, rational_uppers)
    def test_closed_form_equals_oracle(self, ks, upper):
        assert closed_form_integral(ks, upper) == oracle_integral(ks, upper)

    @bounded
    @given(index_tuples, rational_uppers)
    def test_reflection(self, ks, x):
        # B_k(1 - z) = (-1)^k B_k(z) gives I(1 - x) = (-1)^(sum k) (I(1) - I(x))
        sign = -1 if sum(ks) % 2 else 1
        want = sign * (closed_form_integral(ks) - closed_form_integral(ks, x))
        assert closed_form_integral(ks, 1 - x) == want

    @bounded
    @given(long_index_tuples)
    def test_closed_form_poly_equals_oracle_poly(self, ks):
        assert closed_form_integral_poly(ks) == oracle_integral_poly(ks)

    @bounded
    @given(
        index_tuples.flatmap(lambda ks: st.tuples(st.just(ks), st.permutations(ks))),
        rational_uppers,
    )
    def test_permutation_symmetry(self, ks_and_perm, upper):
        ks, perm = ks_and_perm
        want = closed_form_integral(ks, upper)
        assert integrals._closed_form_in_order(tuple(perm), upper) == want

    @bounded
    @given(spread_with_zero.flatmap(st.permutations), rational_uppers)
    def test_in_order_equals_oracle_on_spread_shapes(self, perm, upper):
        perm = tuple(perm)
        assert integrals._closed_form_in_order(perm, upper) == oracle_integral(perm, upper)

    @bounded
    @given(table_uppers, st.integers(0, 80))
    def test_scaled_tables_match_per_entry_values(self, x, n):
        # the Taylor-shift tables against B_k(x)/k! from each polynomial, each
        # entry over its fixed denominator L_k q^k k! (x = p/q, L_k the lcm of
        # the denominators of B_0..B_k)
        def reference(point):
            return [bernoulli_polynomial(k)(point) / math.factorial(k) for k in range(n + 1)]

        lcms = list(
            itertools.accumulate((bernoulli_number(k).denominator for k in range(n + 1)), math.lcm)
        )
        built = integrals._taylor_table(x, n, DEFAULT_CACHE)
        assert len(built[0]) == len(built[1]) == n + 1
        xnum, xden, onum, oden = integrals._scaled_tables(x, n, DEFAULT_CACHE)
        at_x, at_0 = reference(x), reference(0)
        cases = ((*built, at_x, x), (xnum, xden, at_x, x), (onum, oden, at_0, F(0)))
        for nums, dens, want, point in cases:
            for k in range(n + 1):
                assert dens[k] == lcms[k] * point.denominator**k * math.factorial(k), (x, k)
                assert F(nums[k], dens[k]) == want[k], (x, k)
