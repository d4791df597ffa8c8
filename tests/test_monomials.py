"""The monomial helpers of ``Algebra`` and the hbar rewrites built on them.

The six hbar rewrites once handled the ``((id, exp), ...)`` tuples directly.
Those versions are kept below, as they were, as references: on seeded
series over the sl21 slice universe the rewrites through ``split_hbar`` and
``join_hbar`` must give the same terms, orders and error messages.  A scan
of the package sources keeps the tuple format and the truncated pair loop
inside ``supercore``.
"""

import ast
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from superw.algebras import load_algebra
from superw.cli import _random_series
from superw.starprod import rees_inverse, rees_map
from superw.supercore import EVEN, ODD, Algebra, Series, Variable
from superw.wslice import slice_setup


# -- reference rewrites on raw tuples --------------------------------------


def _need_hbar(self):
    h = self.alg.hbar_id
    if h is None:
        raise ValueError("universe has no hbar variable")
    return h


def ref_mul_hbar(self, k):
    if k == 0:
        return self
    h = _need_hbar(self)
    out = {}
    for m, c in self.terms.items():
        d = dict(m)
        d[h] = d.get(h, 0) + k
        out[tuple(sorted(d.items()))] = c
    return Series(self.alg, out, self.order)


def ref_divide_hbar(self, k):
    """Exact division by hbar^k; raises if any term has a lower power."""
    if k == 0:
        return self
    h = _need_hbar(self)
    out = {}
    for m, c in self.terms.items():
        d = dict(m)
        e = d.get(h, 0)
        if e < k:
            raise ValueError(f"term {self.alg.mono_str(m)} not divisible by hbar^{k}")
        if e == k:
            d.pop(h)
        else:
            d[h] = e - k
        out[tuple(sorted(d.items()))] = c
    # dividing by hbar can only lower completion orders, the bound stays valid
    return Series(self.alg, out, self.order)


def ref_hbar_levels(self):
    """Split by hbar exponent: {s: hbar-free coefficient of hbar^s}."""
    h = _need_hbar(self)
    out = {}
    for m, c in self.terms.items():
        d = dict(m)
        s = d.pop(h, 0)
        out.setdefault(s, {})[tuple(sorted(d.items()))] = c
    return {s: Series(self.alg, t, self.order) for s, t in sorted(out.items())}


def ref_set_hbar(self, value):
    """Substitute hbar := 0 or 1 (stays in the same universe)."""
    if value not in (0, 1):
        raise ValueError("hbar can only be specialized to 0 or 1")
    h = _need_hbar(self)
    out = {}
    for m, c in self.terms.items():
        d = dict(m)
        e = d.pop(h, 0)
        if e and value == 0:
            continue
        mono = tuple(sorted(d.items()))
        out[mono] = out.get(mono, Fraction(0)) + c
    return Series(self.alg, {m: c for m, c in out.items() if c}, None)


def ref_rees_map(s):
    alg = s.alg
    h = alg.hbar_id
    if h is None:
        raise ValueError("universe has no hbar variable")
    out = {}
    for m, c in s.terms.items():
        w = sum(alg.by_id[i].weight * e for i, e in m if i != h)
        if w < 0:
            raise ValueError("negative-weight monomial has no Rees image")
        if w:
            mono = dict(m)
            mono[h] = mono.get(h, 0) + w
            mono = tuple(sorted(mono.items()))
        else:
            mono = m
        out[mono] = out.get(mono, Fraction(0)) + c
    return Series(alg, out, s.order)


def ref_rees_inverse(s):
    alg = s.alg
    h = alg.hbar_id
    if h is None:
        raise ValueError("universe has no hbar variable")
    out = {}
    for m, c in s.terms.items():
        w = sum(alg.by_id[i].weight * e for i, e in m if i != h)
        k = dict(m).get(h, 0)
        if k < w:
            raise ValueError(
                f"{alg.mono_str(m)} is not in the Rees image (needs hbar^{w})")
        mono = dict(m)
        if k == w:
            mono.pop(h, None)
        else:
            mono[h] = k - w
        mono = tuple(sorted(mono.items()))
        out[mono] = out.get(mono, Fraction(0)) + c
    return Series(alg, out, s.order)


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


# -- the helpers on tuples ------------------------------------------------------


def test_hbar_must_have_the_largest_id():
    with pytest.raises(ValueError, match="hbar must have the largest variable id"):
        Algebra([Variable(0, "hb", EVEN, 1, adic=False, hbar=True), Variable(1, "x")])
    alg = Algebra([Variable(0, "x"), Variable(5, "hb", EVEN, 1, adic=False, hbar=True)])
    assert alg.hbar_id == 5


def test_monomial_helpers_peel_and_rebuild():
    alg = sl21_alg()
    h = alg.hbar_id
    rng = random.Random(14)
    monos = {m for _ in range(40)
             for m in _random_series(rng, alg, 8, 5, 4, with_hbar=True).terms}
    assert len(monos) > 60
    for m in monos:
        exps = alg.mono_vars(m)
        assert alg.monomial(exps) == m
        assert alg.mono_degree(m) == sum(exps.values())
        ids = {i for i in exps if i % 2}
        assert alg.mono_degree(m, ids) == sum(e for i, e in exps.items() if i in ids)
        rest, k = alg.split_hbar(m)
        assert k == exps.get(h, 0) and h not in alg.mono_vars(rest)
        assert alg.join_hbar(rest, k) == m
        if not m:
            continue
        i, tail = alg.split_first(m)
        assert i == min(exps)
        assert alg.mono_mul(alg.gen_mono[i], tail) == (m, 1)
        j, head = alg.split_last(m)
        assert j == max(exps)
        assert alg.mono_mul(head, alg.gen_mono[j]) == (m, 1)
        assert alg.times_last(head, j) == m
        for x in sorted(alg.by_id):
            if x < j:
                continue
            prod = alg.mono_mul(m, alg.gen_mono[x])
            assert alg.times_last(m, x) == (None if prod is None else prod[0])
    assert alg.monomial({3: 0, 1: 2, 0: 1}) == ((0, 1), (1, 2))
    assert alg.times_last((), 0) == alg.gen_mono[0] == ((0, 1),)
    odd = next(v.ident for v in alg.variables if v.parity == ODD)
    assert alg.times_last(alg.gen_mono[odd], odd) is None


# -- what only supercore may know -------------------------------------------

SOURCES = Path(__file__).resolve().parent.parent / "src" / "superw"
# reads or builds of the ((id, exponent), ...) tuples: indexing a monomial,
# turning it into a dict, iterating its pairs, a literal generator monomial,
# re-sorting exponents into a tuple
MONOMIAL_TUPLE = re.compile(
    r"\b(m|ma|mb|mono)\[(-1|0)\]|dict\(m\)|for i, [e_] in m\b"
    r"|\(\([a-z]+, 1\),\)|tuple\(sorted\(mono\b")
# the pair-skip rule of the one truncated term-pair loop, pair_sum
PAIR_SKIP = re.compile(r"\bbudget\b")


def test_only_supercore_reads_monomials_and_skips_pairs():
    texts = {p.name: p.read_text(encoding="utf-8") for p in sorted(SOURCES.glob("*.py"))}
    assert "supercore.py" in texts and len(texts) > 1
    for rule in (MONOMIAL_TUPLE, PAIR_SKIP):
        hits = {name: [ln for ln in text.splitlines() if rule.search(ln)]
                for name, text in texts.items()}
        hits = {name: lines for name, lines in hits.items() if lines}
        assert list(hits) == ["supercore.py"], (rule.pattern, hits)


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
