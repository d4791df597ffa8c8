"""Every function in ``src/superw`` is reached by some command, or is on an
allow-list with its reason.

A small CLI matrix runs in process under ``sys.setprofile``: every
subcommand and ``walgebra`` method, ``--alt-lagrangian``, a ``--guard``, an
``--out`` run, an input that exits 1 and a usage error that exits 2.  A
function whose code is never entered is unreached; a nested function counts
only once its enclosing function is reached.  Protocol methods that Python
calls implicitly (``__repr__``, ``__hash__``) are exempt.  A new function
that no command reaches fails the test, and so does a listed one that a
command starts to reach.

The same matrix checks the preconditions of two kernels that keep no second
path for other input: every argument of ``StarAlgebra.commutator`` is
parity-homogeneous or zero, and every right factor of
``QuotientModule.mul`` is a class in its module, with no monomial of k or
more shift factors.
"""

import importlib
import os
import pkgutil
import sys
import types

import superw
from superw import cli
from superw.starprod import StarAlgebra
from superw.wslice import QuotientModule

EXEMPT = ("__repr__", "__hash__")

_CLIFFORD = ("the Clifford certificate: only acceptance criterion 8 and the tests call "
             "it, and no command reports it")
_DENSE = "dense elimination adapters kept until the filtered families replace them"

ALLOWED = {
    "clifford.clifford_factorization": _CLIFFORD,
    "clifford._closure_ok": _CLIFFORD,
    "clifford._transport": _CLIFFORD,
    "algebras.extract_even_subalgebra": _CLIFFORD,
    "clifford.even_m_gens": _CLIFFORD,
    "linalg.rref": _DENSE,
    "linalg.nullspace": _DENSE,
    "linalg.Echelon.reduce": _DENSE,
}


def _functions():
    """{code object: (qualified name, enclosing function's code or None)}
    for every named function defined in the package."""
    pkgdir = os.path.dirname(superw.__file__)
    out = {}

    def add(code, name, parent=None):
        out[code] = (name, parent)
        nested(code, name, code)

    def nested(code, name, parent):
        for c in code.co_consts:
            if not isinstance(c, types.CodeType):
                continue
            if c.co_name.startswith("<"):  # a comprehension, lambda or class body
                nested(c, name, parent)
            else:
                add(c, "%s.<locals>.%s" % (name, c.co_name), parent)

    modules = [superw] + [importlib.import_module("superw." + m.name)
                          for m in pkgutil.iter_modules(superw.__path__)]
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        found = []
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue  # imported from elsewhere
            if isinstance(obj, type):
                for v in vars(obj).values():
                    v = getattr(v, "__func__", v)
                    if isinstance(v, property):
                        found += [f for f in (v.fget, v.fset) if f]
                    else:
                        found.append(v)
            else:
                found.append(obj)
        for f in found:
            if (isinstance(f, types.FunctionType)
                    and os.path.dirname(f.__code__.co_filename) == pkgdir):
                add(f.__code__, "%s.%s" % (short, f.__qualname__))
    return out


def _matrix(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    return [
        (["check", "--algebra", "sl2"], 0),
        (["check", "--algebra", "osp12", "--alt-lagrangian"], 0),
        (["darboux", "--algebra", "sl21", "--order", "2"], 0),
        (["darboux", "--algebra", "osp12", "--order", "2", "--guard", "2",
          "--alt-lagrangian"], 0),
        (["walgebra", "--algebra", "sl21", "--order", "3", "--method", "both"], 0),
        (["walgebra", "--algebra", "osp12", "--order", "3", "--method", "whittaker"], 0),
        (["walgebra", "--algebra", "gl11", "--order", "3", "--method", "slice",
          "--out", str(tmp_path / "report.json")], 0),
        (["suite", "--order", "2", "--seed", "1"], 0),
        (["check", "--algebra", str(bad)], 1),
        (["walgebra", "--algebra", "sl2", "--order", "-1"], 2),
    ]


def _recording(method, calls):
    """``method`` with the receiver and two first arguments of each call
    appended to ``calls``."""
    def recorded(self, a, b, *rest, **kwargs):
        calls.append((self, a, b))
        return method(self, a, b, *rest, **kwargs)
    return recorded


def test_every_function_is_reached_by_a_command_or_allowed(tmp_path, capsys, monkeypatch):
    functions = _functions()
    seen = set()
    commutators, products = [], []
    monkeypatch.setattr(StarAlgebra, "commutator",
                        _recording(StarAlgebra.commutator, commutators))
    monkeypatch.setattr(QuotientModule, "mul", _recording(QuotientModule.mul, products))

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    for argv, want in _matrix(tmp_path):
        old = sys.getprofile()
        sys.setprofile(profile)
        try:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        finally:
            sys.setprofile(old)
        capsys.readouterr()
        assert code == want, argv
    assert (tmp_path / "report.json").read_text(encoding="utf-8").endswith("\n")

    unreached = {name for code, (name, parent) in functions.items()
                 if code not in seen and (parent is None or parent in seen)
                 and name.rpartition(".")[2] not in EXEMPT}
    assert unreached == set(ALLOWED), {"unreached, not allowed": unreached - set(ALLOWED),
                                       "allowed, but reached": set(ALLOWED) - unreached}

    # checked after the runs, so that the checks reach nothing themselves
    assert commutators and products
    for _, f, g in commutators:
        assert "mixed" not in (f.parity(), g.parity())
    for module, _, t in products:
        assert len(module.alg.free_of(t.nums, module.m_ids, module.k)) == len(t.nums)
