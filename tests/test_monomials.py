"""The monomial helpers of ``Algebra`` and the hbar rewrites built on them.

Monomials were once ``((id, exp), ...)`` tuples sorted by id.  The helpers
on those tuples are kept below, as they were, as the reference of the packed
int helpers: through ``mono_key`` (the packed monomial decoded into that
tuple) they must agree on every pair of monomials of degree at most 3 over
the bundled universes.  The six hbar rewrites once handled the tuples
directly, and those versions are kept too: on seeded series over the sl21
slice universe the rewrites through ``split_hbar`` and ``join_hbar`` must
give the same terms, orders and error messages.  A scan of the package
sources keeps the packed format and the truncated pair loop inside
``supercore``.
"""

import ast
import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from superw.algebras import load_algebra
from superw.starprod import rees_inverse, rees_map
from superw.suite import _random_series
from superw.supercore import EVEN, ODD, Algebra, Series, Variable
from superw.wslice import slice_setup


# -- reference helpers on tuples ----------------------------------------------


class TupleMonomials:
    """The monomial helpers of ``Algebra`` on ``((id, exponent), ...)``
    tuples sorted by id, kept as they were (memos dropped), and the
    reference of ``split_var``, which had no tuple version; the empty tuple
    is the unit."""

    def __init__(self, alg):
        vs = alg.variables
        self._parity = {v.ident: v.parity for v in vs}
        self._weight = {v.ident: v.weight for v in vs}
        self.hbar_id = alg.hbar_id
        self.gen_mono = {v.ident: ((v.ident, 1),) for v in vs}

    def monomial(self, exps):
        return tuple(sorted((i, e) for i, e in exps.items() if e))

    def split_first(self, m):
        i, e = m[0]
        return i, (m[1:] if e == 1 else ((i, e - 1),) + m[1:])

    def split_var(self, m, i, last=False):
        k = [j for j, _ in m].index(i)
        e = m[k][1]
        rest = m[:k] + (((i, e - 1),) if e > 1 else ()) + m[k + 1:]
        # an odd x_i passes the odd factors before it (after it, when last)
        passed = m[k + 1:] if last else m[:k]
        n = sum(1 for j, _ in passed if self._parity[j]) if self._parity[i] else 0
        return rest, -1 if n % 2 else 1

    def times_last(self, m, x):
        if not m:
            return self.gen_mono[x]
        i, e = m[-1]
        if i < x:
            return m + self.gen_mono[x]
        if self._parity[x]:
            return None
        return m[:-1] + ((x, e + 1),)

    def split_hbar(self, m):
        if m and m[-1][0] == self.hbar_id:
            return m[:-1], m[-1][1]
        return m, 0

    def join_hbar(self, rest, k):
        return rest + ((self.hbar_id, k),) if k else rest

    def mono_parity(self, m):
        p = 0
        for i, e in m:
            if self._parity[i]:
                p ^= e & 1
        return p

    def mono_weight(self, m):
        return sum(self._weight[i] * e for i, e in m)

    def mono_eff(self, m):
        # the completion order is the total degree, hbar counting 1
        return sum(e for _, e in m)

    def mono_mul(self, a, b):
        if not a:
            return b, 1
        if not b:
            return a, 1
        par = self._parity
        odd_a = [i for i, e in a if par[i]]
        sign = 1
        if odd_a:
            odd_b = [i for i, e in b if par[i]]
            if odd_b:
                inv = 0
                for j in odd_b:
                    for i in odd_a:
                        if i > j:
                            inv += 1
                        elif i == j:
                            return None
                if inv & 1:
                    sign = -1
        merged = dict(a)
        for i, e in b:
            merged[i] = merged.get(i, 0) + e
        mono = tuple(sorted(merged.items()))
        return mono, sign


# -- reference rewrites on raw tuples --------------------------------------
#
# The rewrites read each packed monomial as its tuple through ``mono_key``
# and pack their tuples back with ``monomial``.


def _need_hbar(self):
    h = self.alg.hbar_id
    if h is None:
        raise ValueError("universe has no hbar variable")
    return h


def ref_mul_hbar(self, k):
    if k == 0:
        return self
    h = _need_hbar(self)
    alg = self.alg
    out = {}
    for m, c in self.terms.items():
        d = dict(alg.mono_key(m))
        d[h] = d.get(h, 0) + k
        out[alg.monomial(d)] = c
    return Series(self.alg, out).truncate(self.order)


def ref_divide_hbar(self, k):
    """Exact division by hbar^k; raises if any term has a lower power."""
    if k == 0:
        return self
    h = _need_hbar(self)
    alg = self.alg
    out = {}
    for m, c in self.terms.items():
        d = dict(alg.mono_key(m))
        e = d.get(h, 0)
        if e < k:
            raise ValueError(f"term {self.alg.mono_str(m)} not divisible by hbar^{k}")
        if e == k:
            d.pop(h)
        else:
            d[h] = e - k
        out[alg.monomial(d)] = c
    # dividing by hbar can only lower completion orders, the bound stays valid
    return Series(self.alg, out).truncate(self.order)


def ref_hbar_levels(self):
    """Split by hbar exponent: {s: hbar-free coefficient of hbar^s}."""
    h = _need_hbar(self)
    alg = self.alg
    out = {}
    for m, c in self.terms.items():
        d = dict(alg.mono_key(m))
        s = d.pop(h, 0)
        out.setdefault(s, {})[alg.monomial(d)] = c
    return {s: Series(self.alg, t).truncate(self.order) for s, t in sorted(out.items())}


def ref_set_hbar(self, value):
    """Substitute hbar := 0 or 1 (stays in the same universe)."""
    if value not in (0, 1):
        raise ValueError("hbar can only be specialized to 0 or 1")
    h = _need_hbar(self)
    alg = self.alg
    out = {}
    for m, c in self.terms.items():
        d = dict(alg.mono_key(m))
        e = d.pop(h, 0)
        if e and value == 0:
            continue
        mono = alg.monomial(d)
        out[mono] = out.get(mono, Fraction(0)) + c
    return Series(self.alg, {m: c for m, c in out.items() if c})


def ref_rees_map(s):
    alg = s.alg
    h = alg.hbar_id
    if h is None:
        raise ValueError("universe has no hbar variable")
    out = {}
    for mm, c in s.terms.items():
        m = alg.mono_key(mm)
        w = sum(alg.by_id[i].weight * e for i, e in m if i != h)
        if w < 0:
            raise ValueError("negative-weight monomial has no Rees image")
        if w:
            mono = dict(m)
            mono[h] = mono.get(h, 0) + w
            mono = alg.monomial(mono)
        else:
            mono = mm
        out[mono] = out.get(mono, Fraction(0)) + c
    return Series(alg, out).truncate(s.order)


def ref_rees_inverse(s):
    alg = s.alg
    h = alg.hbar_id
    if h is None:
        raise ValueError("universe has no hbar variable")
    out = {}
    for mm, c in s.terms.items():
        m = alg.mono_key(mm)
        w = sum(alg.by_id[i].weight * e for i, e in m if i != h)
        k = dict(m).get(h, 0)
        if k < w:
            raise ValueError(
                f"{alg.mono_str(mm)} is not in the Rees image (needs hbar^{w})")
        mono = dict(m)
        if k == w:
            mono.pop(h, None)
        else:
            mono[h] = k - w
        mono = alg.monomial(mono)
        out[mono] = out.get(mono, Fraction(0)) + c
    return Series(alg, out).truncate(s.order)


# -- fixtures -----------------------------------------------------------------


def sl21_alg():
    return slice_setup(load_algebra("sl21")).alg


def seeded_inputs(alg, seed, count=12):
    """Random series with hbar, half of them truncated."""
    rng = random.Random(seed)
    out = []
    for n in range(count):
        s = _random_series(rng, alg, 6, 4, 6, with_hbar=True)
        out.append(s if n % 2 else s.truncate(rng.randrange(1, 6)))
    return out


def same(a, b):
    return a.terms == b.terms and a.order == b.order


def message(f, *args):
    with pytest.raises(ValueError) as err:
        f(*args)
    return str(err.value)


# -- the rewrites against their references -------------------------------------


def test_hbar_shifts_match_reference():
    alg = sl21_alg()
    for s in seeded_inputs(alg, 11):
        for k in range(5):
            up = s.mul_hbar(k)
            assert same(up, ref_mul_hbar(s, k))
            assert same(up.divide_hbar(k), ref_divide_hbar(up, k))
            assert same(up.mul_hbar(-k), ref_divide_hbar(up, k))
            if k and any(alg.split_hbar(m)[1] < k for m in s.terms):
                assert message(s.divide_hbar, k) == message(ref_divide_hbar, s, k)
                assert message(s.mul_hbar, -k) == message(ref_divide_hbar, s, k)


def test_hbar_levels_and_specialization_match_reference():
    alg = sl21_alg()
    for s in seeded_inputs(alg, 12):
        for k in range(5):
            a = s.mul_hbar(k) + s
            got, want = a.hbar_levels(), ref_hbar_levels(a)
            assert list(got) == list(want)
            assert all(same(got[n], want[n]) for n in got)
            for value in (0, 1):
                assert same(a.set_hbar(value), ref_set_hbar(a, value))
        assert message(s.set_hbar, 2) == message(ref_set_hbar, s, 2)


def test_rees_pair_matches_reference():
    alg = sl21_alg()
    for s in seeded_inputs(alg, 13):
        for k in range(5):
            a = s.mul_hbar(k)
            tagged = rees_map(a)
            assert same(tagged, ref_rees_map(a))
            assert same(rees_inverse(tagged), ref_rees_inverse(tagged))
            if any(alg.mono_weight(alg.split_hbar(m)[0]) > alg.split_hbar(m)[1]
                   for m in a.terms):
                assert message(rees_inverse, a) == message(ref_rees_inverse, a)
    e = alg.gen("e")
    assert message(rees_inverse, e) == message(ref_rees_inverse, e)
    w = alg.mono_weight(alg.gen_mono[alg.by_name["e"].ident])
    assert message(rees_inverse, e) == f"e is not in the Rees image (needs hbar^{w})"


def test_rewrites_without_hbar_raise_like_reference():
    alg = load_algebra("sl2")
    flat = Algebra([Variable(i, n) for i, n in enumerate(alg.names)])
    x = flat.gen("e")
    for got, want in ((x.mul_hbar, ref_mul_hbar), (x.divide_hbar, ref_divide_hbar)):
        assert message(got, 1) == message(want, x, 1)
    assert message(x.hbar_levels) == message(ref_hbar_levels, x)
    assert message(x.set_hbar, 0) == message(ref_set_hbar, x, 0)
    assert message(rees_map, x) == message(ref_rees_map, x)
    assert message(rees_inverse, x) == message(ref_rees_inverse, x)


# -- the packed helpers -------------------------------------------------------


def test_hbar_must_have_the_largest_id():
    with pytest.raises(ValueError, match="hbar must have the largest variable id"):
        Algebra([Variable(0, "hb", EVEN, 1, hbar=True), Variable(1, "x")])
    alg = Algebra([Variable(0, "x"), Variable(5, "hb", EVEN, 1, hbar=True)])
    assert alg.hbar_id == 5


def test_monomial_helpers_peel_and_rebuild():
    alg = sl21_alg()
    h = alg.hbar_id
    rng = random.Random(14)
    monos = {m for _ in range(40)
             for m in _random_series(rng, alg, 8, 5, 4, with_hbar=True).terms}
    assert len(monos) > 60
    assert sum(h in dict(alg.mono_key(m)) for m in monos) > 10
    for m in monos:
        exps = dict(alg.mono_key(m))
        assert alg.monomial(exps) == m
        # the completion order is the total degree, hbar counting 1
        assert alg.mono_eff(m) == sum(exps.values())
        ids = {i for i in exps if i % 2}
        assert alg.mono_degree(m, ids) == sum(e for i, e in exps.items() if i in ids)
        rest, k = alg.split_hbar(m)
        assert k == exps.get(h, 0) and h not in dict(alg.mono_key(rest))
        assert alg.join_hbar(rest, k) == m
        if not m:
            continue
        i, tail = alg.split_first(m)
        assert i == min(exps)
        assert alg.mono_mul(alg.gen_mono[i], tail) == (m, 1)
        j = max(exps)
        head = alg.monomial({**exps, j: exps[j] - 1})
        assert alg.split_var(m, j, last=True) == (head, 1)
        assert alg.times_last(head, j) == m
        for y in exps:
            rest, sign = alg.split_var(m, y)
            assert alg.mono_mul(alg.gen_mono[y], rest) == (m, sign)
            rest, sign = alg.split_var(m, y, last=True)
            assert alg.mono_mul(rest, alg.gen_mono[y]) == (m, sign)
        for x in sorted(alg.by_id):
            if x < j:
                continue
            prod = alg.mono_mul(m, alg.gen_mono[x])
            assert alg.times_last(m, x) == (None if prod is None else prod[0])
    assert alg.mono_key(alg.monomial({3: 0, 1: 2, 0: 1})) == ((0, 1), (1, 2))
    assert alg.times_last(alg.monomial({}), 0) == alg.gen_mono[0]
    assert alg.mono_key(alg.gen_mono[0]) == ((0, 1),)
    odd = next(v.ident for v in alg.variables if v.parity == ODD)
    assert alg.times_last(alg.gen_mono[odd], odd) is None


def test_free_of_counts_shift_factors_as_mono_degree():
    # free_of's mask test and its k > 1 count, against the factor count
    # that LeftAction's bound k reads
    ctx = slice_setup(load_algebra("sl21"))
    alg, ids = ctx.alg, ctx.m_ids
    rng = random.Random(21)
    # random monomials with hbar, times f^a um^b for every a <= 4 and b <= 1
    shifts = [alg.monomial(dict(zip(sorted(ids), e)))
              for e in itertools.product(range(5), range(2))]
    nums = {}
    for _ in range(10):
        for m in _random_series(rng, alg, 8, 5, 4, with_hbar=True).nums:
            for t in shifts:
                prod = alg.mono_mul(m, t)
                if prod is not None:
                    nums[prod[0]] = rng.randrange(1, 7)
    assert {0, 1, 2, 3, 4} <= {alg.mono_degree(m, ids) for m in nums}
    for k in (1, 2, 3):
        want = {m: v for m, v in nums.items() if alg.mono_degree(m, ids) < k}
        assert alg.free_of(nums, ids, k) == want


BUNDLED = ("sl2", "gl11", "osp12", "sl21")


def tuple_monomials(ref, max_deg):
    """Every monomial of total degree <= max_deg as a reference tuple."""
    ids = sorted(ref._parity)
    out = []
    for deg in range(max_deg + 1):
        for combo in itertools.combinations_with_replacement(ids, deg):
            exps = {i: combo.count(i) for i in combo}
            if all(e == 1 or not ref._parity[i] for i, e in exps.items()):
                out.append(ref.monomial(exps))
    return out


@pytest.mark.parametrize("name", BUNDLED)
def test_packed_helpers_match_tuple_reference(name):
    alg = slice_setup(load_algebra(name)).alg
    ref = TupleMonomials(alg)
    key = alg.mono_key
    tuples = tuple_monomials(ref, 3)
    packed = [alg.monomial(dict(t)) for t in tuples]
    assert len(set(packed)) == len(tuples)
    assert alg.hbar_id is not None and ref.gen_mono[alg.hbar_id] in tuples
    for t, m in zip(tuples, packed):
        assert key(m) == t
        assert alg.mono_parity(m) == ref.mono_parity(t)
        assert alg.mono_eff(m) == ref.mono_eff(t)
        assert alg.mono_weight(m) == ref.mono_weight(t)
        rest, k = alg.split_hbar(m)
        assert (key(rest), k) == ref.split_hbar(t)
        assert alg.join_hbar(rest, k) == m
        if t:
            i, rest = alg.split_first(m)
            assert (i, key(rest)) == ref.split_first(t)
        for i, _ in t:
            for last in (False, True):
                rest, sign = alg.split_var(m, i, last)
                assert (key(rest), sign) == ref.split_var(t, i, last)
        for x in sorted(ref._parity):
            if t and x < t[-1][0]:
                continue
            got, want = alg.times_last(m, x), ref.times_last(t, x)
            assert (got if got is None else key(got)) == want
    for (ta, a), (tb, b) in itertools.product(zip(tuples, packed), repeat=2):
        got, want = alg.mono_mul(a, b), ref.mono_mul(ta, tb)
        assert (got if got is None else (key(got[0]), got[1])) == want
    # mono_key sorts like the tuples, which the ints alone do not
    assert [key(m) for m in sorted(packed, key=key)] == sorted(tuples)
    assert sorted(packed) != sorted(packed, key=key)


def test_exponent_overflow_raises_and_keeps_fields_apart():
    alg = sl21_alg()
    x, y = alg.variables[0].ident, alg.variables[1].ident
    h = alg.hbar_id
    with pytest.raises(OverflowError):
        alg.monomial({x: 1 << 15})
    big = alg.monomial({x: 1 << 14, y: 3})
    with pytest.raises(OverflowError):
        alg.mono_mul(big, big)
    with pytest.raises(OverflowError):
        alg.join_hbar(alg.monomial({}), 1 << 15)
    with pytest.raises(OverflowError):
        alg.gen("hb").mul_hbar((1 << 15) - 1)
    # the largest exponent fits, and a neighbour's field stays its own
    top = alg.monomial({x: (1 << 15) - 1})
    assert alg.mono_key(top) == ((x, (1 << 15) - 1),)
    assert alg.mono_key(alg.mono_mul(top, alg.gen_mono[y])[0]) == (
        (x, (1 << 15) - 1), (y, 1))
    with pytest.raises(OverflowError):
        alg.mono_mul(top, alg.gen_mono[x])
    assert alg.mono_key(alg.join_hbar(top, (1 << 15) - 1)) == (
        (x, (1 << 15) - 1), (h, (1 << 15) - 1))
    with pytest.raises(OverflowError):
        alg.times_last(alg.join_hbar(top, (1 << 15) - 1), h)


# -- what only supercore may know -------------------------------------------

SOURCES = Path(__file__).resolve().parent.parent / "src" / "superw"
# reads or builds of the packed ints: a shift or mask next to a monomial,
# bit_length or bit_count of one, or Algebra's private field tables
MONOMIAL_BITS = re.compile(
    r"\b(m|ma|mb|mono)\s*(<<|>>|&|\|)|(<<|>>|&|\|)\s*(m|ma|mb|mono)\b"
    r"|\b(m|ma|mb|mono)\.bit_(length|count)\b"
    r"|\._(fields|shift|hshift|odd|guard|mono_key|mono_eff)\b|\b_(W|CAP|MASK)\b")
# reads or builds of ((id, exponent), ...) tuples as monomials: indexing a
# monomial, turning it into a dict, iterating its pairs, a literal generator
# monomial, re-sorting exponents into a tuple
MONOMIAL_TUPLE = re.compile(
    r"\b(m|ma|mb|mono)\[(-1|0)\]|dict\(m\)|for i, [e_] in m\b"
    r"|\(\([a-z]+, 1\),\)|tuple\(sorted\(mono\b")
# integer arithmetic on a monomial: a sum or difference with a monomial on
# the left, or with a generator's monomial on either side, such as
# ``ma - alg.gen_mono[i]``
MONOMIAL_ARITH = re.compile(
    r"\b(m|ma|mb|mono|rest)\s*[-+]=?\s*[\w(]"
    r"|[-+*]\s*(\w+\.)*gen_mono\[|gen_mono\[[^\]]*\]\s*[-+*]")
# the pair-skip rule of the one truncated term-pair loop, pair_sum
PAIR_SKIP = re.compile(r"\bbudget\b")
# a write into the numerators of an existing Series: an item assignment,
# a mutating dict method or a del.  Series share ``nums`` dicts and keep a
# sorted view of them (``Series.by_order``), so no module writes into one
NUMS_WRITE = re.compile(
    r"\.nums\s*\[[^\]]*\]\s*([-+*/%&|^@]|//|<<|>>|\*\*)?=(?!=)"
    r"|\.nums\.(pop|popitem|update|setdefault|clear)\("
    r"|\bdel\b.*\.nums\b")
# a read of a bracket table entry: the Poisson bracket and the one
# normal-ordering rule of the star product and Q_chi take them
TABLE_ENTRY = re.compile(r"\btable\.entry\(")


def _hits(texts, rule):
    hits = {name: [ln for ln in text.splitlines() if rule.search(ln)]
            for name, text in texts.items()}
    return {name: lines for name, lines in hits.items() if lines}


def test_only_supercore_reads_monomials_and_skips_pairs():
    texts = {p.name: p.read_text(encoding="utf-8") for p in sorted(SOURCES.glob("*.py"))}
    assert "supercore.py" in texts and len(texts) > 1
    for rule in (MONOMIAL_BITS, MONOMIAL_ARITH, PAIR_SKIP):
        hits = _hits(texts, rule)
        assert list(hits) == ["supercore.py"], (rule.pattern, hits)
    # no module, supercore included, builds tuple monomials any more
    assert _hits(texts, MONOMIAL_TUPLE) == {}


def test_no_module_writes_into_series_numerators():
    texts = {p.name: p.read_text(encoding="utf-8") for p in sorted(SOURCES.glob("*.py"))}
    assert len(texts) > 1 and _hits(texts, NUMS_WRITE) == {}
    writes = ("s.nums[m] = 1", "t.nums[m] += c", "x.a.nums[(m)]-=1", "out.nums.pop(m)",
              "s.nums.popitem()", "s.nums.update(d)", "s.nums.setdefault(m, 0)",
              "a.nums.clear()", "del s.nums[m]", "del s.nums")
    reads = ("s.nums[m] == 1", "v = s.nums[m]", "s.nums[m] <= 1", "nums = dict(s.nums)",
             "s.nums.get(m)", "f(s.nums[m]) != 0", "s.nums = nums")
    for line in writes:
        assert _hits({"planted.py": line}, NUMS_WRITE), line
    for line in reads:
        assert not _hits({"planted.py": line}, NUMS_WRITE), line


def test_only_the_bracket_and_the_left_action_read_table_entries():
    # a second module that reads the table would be a second copy of the
    # rule v·x = ±x·v + [v, x]
    texts = {p.name: p.read_text(encoding="utf-8") for p in sorted(SOURCES.glob("*.py"))}
    assert list(_hits(texts, TABLE_ENTRY)) == ["poisson.py", "starprod.py"]


def _exported(tree):
    """The strings listed in a module-level ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant)}
    return set()


def test_no_unused_imports():
    unused = {}
    for path in sorted(SOURCES.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update((a.asname or a.name).split(".")[0]
                                for a in node.names)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names = sorted(imported - used - _exported(tree))
        if names:
            unused[path.name] = names
    assert unused == {}


def _defined(node):
    """The names a module-level statement binds by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _referenced(node):
    """The names a statement reads: plain loads, attributes and imports."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def test_no_unreached_private_names():
    # a module-level _name that no other statement of the package reads is
    # dead code: nothing but its own body (a recursion, say) can reach it
    statements = []
    for path in sorted(SOURCES.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        statements += [(path.name, node, _referenced(node)) for node in tree.body]
    unreached = sorted(
        "%s:%s" % (module, name)
        for module, node, _ in statements
        for name in _defined(node)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in refs for _, other, refs in statements if other is not node))
    assert unreached == []
