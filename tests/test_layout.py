"""The layering of ``src/promc``.

Only the two instance modules know which instances exist: the tags
``SET_BIJ``/``CHAIN_F2`` ("set-bij"/"chain-f2") appear nowhere else,
except where ``base`` re-exports them beside ``SHIPPED`` (the table
``instance_of`` reads) and where ``__init__`` re-exports them from
``base``.  No module imports numpy: with numpy made unimportable,
``check-axioms`` runs and both instances' generators build level maps,
and neither importing the CLI or ``suites`` nor replaying a SetBij
``hom`` or ``adjunction`` certificate (which runs the brute-force
oracle) loads it.  Only ``chainf2`` and ``suites`` import ``gf2``.
Only ``strict``, whose one table maps each mode to its classes, compares
anything with a mode or class tag.  Only ``indexing`` picks related pairs out of a poset's elements; the other modules read
its ``pairs``, ``covers()`` and ``predecessors()``.  No function in
``proobj``, ``prohom``, ``strict``, ``proiso`` or ``towers`` takes a
parameter named ``depth``: the ω depth belongs to the index, and only
``omega_pro_object`` and ``omega_constant_tower``, which build an ω index,
take one.  In ``verify`` only the class ``Loader`` calls the ``docio``
readers, and no replay handler (a value of ``_HANDLERS``) takes an
``instance`` or ``depth`` parameter: a handler reads every payload
through the loader it is given.  No module imports a name it does not
use, except re-exports marked ``# noqa``.  Only ``chainf2`` reads the
block internals of its values (``D``, ``F``, ``_offs``, ``_start``): every
other module, test, benchmark file and demo reads a complex or a chain
map through ``dim``, ``d``, ``mat`` and the instance's operations.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "promc"
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
TAG_NAMES = {"SET_BIJ", "CHAIN_F2"}
TAG_VALUES = {"set-bij", "chain-f2"}
INSTANCE_MODULES = {"setbij", "chainf2"}
NUMPY_MODULES = set()
GF2_MODULES = {"gf2", "chainf2", "suites"}
MODE_NAMES = {"MODE_L1", "MODE_L2", "FIB", "ACYCLIC_FIB"}
MODE_VALUES = {"L1", "L2", "fib", "acyclic-fib"}
COMPARISONS = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)
ORDER_TESTS = {"lt", "leq"}
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
DEPTH_FREE_MODULES = {"proobj", "prohom", "strict", "proiso", "towers"}
OMEGA_BUILDERS = {"omega_pro_object", "omega_constant_tower"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
BLOCK_NAMES = {"D", "F", "_offs", "_start"}
ROOT = SRC.parents[1]
READERS = {"poset_from_doc", "proobj_from_doc", "promap_from_doc",
           "hfamily_from_doc", "obj_from_doc", "map_from_doc"}


def _is_tag(node):
    return ((isinstance(node, ast.Name) and node.id in TAG_NAMES)
            or (isinstance(node, ast.Attribute) and node.attr in TAG_NAMES)
            or (isinstance(node, ast.alias) and node.name in TAG_NAMES)
            or (isinstance(node, ast.Constant) and node.value in TAG_VALUES))


def _re_export(module, stmt):
    """An import statement that may name a tag: base importing from an
    instance module, __init__ importing from base."""
    if not isinstance(stmt, ast.ImportFrom) or stmt.level != 1:
        return False
    return ((module == "base" and stmt.module in INSTANCE_MODULES)
            or (module == "__init__" and stmt.module == "base"))


def tag_uses(module, source):
    """(line, text) of every tag use outside the allowed places."""
    if module in INSTANCE_MODULES:
        return []
    out = []
    for stmt in ast.parse(source).body:
        if _re_export(module, stmt):
            continue
        out += [(node.lineno, ast.unparse(node)) for node in ast.walk(stmt)
                if _is_tag(node)]
    return out


def _imports(node):
    """(line, "numpy" | "gf2") for an import statement of either."""
    if isinstance(node, ast.Import):
        return [(node.lineno, "numpy" if a.name.split(".")[0] == "numpy" else "gf2")
                for a in node.names
                if a.name.split(".")[0] == "numpy" or a.name == "promc.gf2"]
    if isinstance(node, ast.ImportFrom):
        mod = node.module or ""
        if mod.split(".")[0] == "numpy" and node.level == 0:
            return [(node.lineno, "numpy")]
        if mod in ("gf2", "promc.gf2") \
                or (mod in ("", "promc") and "gf2" in {a.name for a in node.names}):
            return [(node.lineno, "gf2")]
    return []


def numeric_imports(module, source):
    """(line, "numpy" | "gf2") of every numpy import outside
    NUMPY_MODULES and every gf2 import outside GF2_MODULES."""
    allowed = {"numpy": module in NUMPY_MODULES, "gf2": module in GF2_MODULES}
    return [(line, what) for node in ast.walk(ast.parse(source))
            for line, what in _imports(node) if not allowed[what]]


def _is_mode(node):
    return ((isinstance(node, ast.Name) and node.id in MODE_NAMES)
            or (isinstance(node, ast.Attribute) and node.attr in MODE_NAMES)
            or (isinstance(node, ast.Constant) and node.value in MODE_VALUES))


def _retract_kind(tree):
    """The comparisons of ``kind`` in ``retract_exhibit``: its kind names
    a retract, "acyclic-fib" among them, not a class."""
    return {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "retract_exhibit"
            for node in ast.walk(fn)
            if isinstance(node, ast.Compare) and isinstance(node.left, ast.Name)
            and node.left.id == "kind"}


def mode_comparisons(module, source):
    """(line, text) of every comparison (==, !=, in, not in) with a mode
    or class tag outside strict."""
    if module == "strict":
        return []
    tree = ast.parse(source)
    exempt = _retract_kind(tree)
    return [(node.lineno, ast.unparse(node)) for node in ast.walk(tree)
            if isinstance(node, ast.Compare) and id(node) not in exempt
            and any(isinstance(op, COMPARISONS) for op in node.ops)
            and any(_is_mode(n) for side in (node.left, *node.comparators)
                    for n in ast.walk(side))]


def _over_elements(node):
    """Whether the for statement or comprehension clause *node* runs over
    some ``.elements``."""
    return (isinstance(node, (ast.For, ast.comprehension))
            and isinstance(node.iter, ast.Attribute) and node.iter.attr == "elements")


def pair_picks(module, source):
    """(line, text) of every loop or comprehension over ``.elements`` that
    holds a second loop over ``.elements`` and an ``lt``/``leq`` test:
    related pairs picked by hand, outside indexing."""
    if module == "indexing":
        return []
    out = []
    for node in ast.walk(ast.parse(source)):
        if not (_over_elements(node) or isinstance(node, COMPREHENSIONS)
                and any(_over_elements(g) for g in node.generators)):
            continue
        inner = list(ast.walk(node))
        if sum(map(_over_elements, inner)) >= 2 and any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr in ORDER_TESTS for n in inner):
            out.append((node.lineno, ast.unparse(node).splitlines()[0]))
    return sorted(out)


def _parameters(fn):
    a = fn.args
    return {p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)}


def depth_parameters(module, source):
    """(line, name) of every function or lambda in DEPTH_FREE_MODULES with
    a parameter named ``depth``, apart from OMEGA_BUILDERS."""
    if module not in DEPTH_FREE_MODULES:
        return []
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, FUNCTIONS):
            continue
        name = getattr(node, "name", "<lambda>")
        if name not in OMEGA_BUILDERS and "depth" in _parameters(node):
            out.append((node.lineno, name))
    return sorted(out)


def reader_calls(source):
    """(line, name) of every call of a docio reader outside the class
    ``Loader``."""
    tree = ast.parse(source)
    loader = {id(n) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == "Loader"
              for n in ast.walk(cls)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in loader:
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in READERS:
                out.append((node.lineno, name))
    return out


def handler_parameters(source):
    """The names of the functions in ``_HANDLERS``, and (line, name) of
    those with a parameter named ``instance`` or ``depth``."""
    tree = ast.parse(source)
    handlers = {v.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "_HANDLERS" for t in node.targets)
                for v in node.value.values if isinstance(v, ast.Name)}
    return handlers, [(fn.lineno, fn.name) for fn in ast.walk(tree)
                      if isinstance(fn, ast.FunctionDef) and fn.name in handlers
                      and {"instance", "depth"} & _parameters(fn)]


def unused_imports(source):
    """(line, name) of every imported name the module never reads; names
    listed in ``__all__`` are read, and an import with ``# noqa`` on any
    of its lines is a re-export."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    read |= {c.value for n in ast.walk(tree) if isinstance(n, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__all__" for t in n.targets)
             for c in ast.walk(n.value) if isinstance(c, ast.Constant)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                or getattr(node, "module", None) == "__future__" \
                or any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for a in node.names:
            name = a.asname or a.name.split(".")[0]
            if name not in read:
                out.append((node.lineno, name))
    return out


def block_reads(module, source):
    """(line, text) of every read of a ChainF2 block internal outside
    ``chainf2``."""
    if module == "chainf2":
        return []
    return [(node.lineno, ast.unparse(node)) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in BLOCK_NAMES]


def _modules():
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_tags_stay_in_the_instance_modules():
    bad = {m: uses for m, src in _modules().items() if (uses := tag_uses(m, src))}
    assert not bad


def test_numpy_and_gf2_stay_in_the_numeric_modules():
    bad = {m: imps for m, src in _modules().items()
           if (imps := numeric_imports(m, src))}
    assert not bad


def test_modes_are_compared_only_in_strict():
    bad = {m: uses for m, src in _modules().items()
           if (uses := mode_comparisons(m, src))}
    assert not bad


def test_only_indexing_picks_related_pairs():
    bad = {m: picks for m, src in _modules().items() if (picks := pair_picks(m, src))}
    assert not bad


def test_only_the_omega_builders_take_a_depth():
    bad = {m: fns for m, src in _modules().items()
           if (fns := depth_parameters(m, src))}
    assert not bad


def test_only_the_loader_reads_payloads_in_verify():
    source = (SRC / "verify.py").read_text()
    handlers, bad = handler_parameters(source)
    assert "_verify_hom" in handlers and not bad
    assert not reader_calls(source)


def test_no_module_imports_a_name_it_does_not_use():
    bad = {m: names for m, src in _modules().items() if (names := unused_imports(src))}
    assert not bad


def test_only_chainf2_reads_its_block_internals():
    files = [p for d in ("src", "tests", "bench", "demos") for p in (ROOT / d).rglob("*.py")]
    assert SRC / "chainf2.py" in files and len(files) > 40
    bad = {str(p.relative_to(ROOT)): reads for p in sorted(files)
           if (reads := block_reads(p.stem, p.read_text()))}
    assert not bad


def test_the_checks_see_what_they_forbid():
    src = ('import numpy as np\nfrom . import gf2\nfrom .gf2 import rank\n'
           'from .base import SET_BIJ\nX = "chain-f2"\n'
           'def f(x):\n    return x.instance == base.CHAIN_F2\n')
    assert len(tag_uses("strict", src)) == 3
    assert len(numeric_imports("strict", src)) == 3
    assert tag_uses("chainf2", src) == []
    assert numeric_imports("suites", src) == [(1, "numpy")]
    assert numeric_imports("chainf2", src) == [(1, "numpy")]
    assert numeric_imports("gf2", src) == [(1, "numpy")]
    assert numeric_imports("verify", "import numpy.linalg\nimport promc.gf2\n") \
        == [(1, "numpy"), (2, "gf2")]
    assert tag_uses("__init__", "from .base import SET_BIJ\n") == []
    assert tag_uses("base", "from .setbij import SET_BIJ\n") == []
    assert len(tag_uses("base", "from .proobj import SET_BIJ\n")) == 1
    modes = ('def f(mode, cls, kind):\n'
             '    if mode == "L1" or kind == "acyclic-fib":\n        pass\n'
             '    if mode in (FIB, strict.ACYCLIC_FIB):\n        pass\n'
             '    return cls.tag != MODE_L2, {"fib": 1}, mode < "L2"\n'
             'def retract_exhibit(f, kind):\n'
             '    return kind == "acyclic-fib", kind != MODE_L1\n')
    assert len(mode_comparisons("verify", modes)) == 4
    assert mode_comparisons("strict", modes) == []
    picks = ('def f(P, X):\n'
             '    a = [(t, s) for t in P.elements for s in P.elements if P.lt(s, t)]\n'
             '    for t in P.elements:\n'
             '        for s in P.elements:\n'
             '            if P.leq(s, t):\n                pass\n'
             '    b = [(x, y) for x in X.elements for y in X.elements]\n'
             '    c = [(t, s) for t, s in P.pairs if P.lt(s, t)]\n'
             '    return [u for u in P.elements if P.lt(u, a[0][0])]\n')
    assert [line for line, _ in pair_picks("proobj", picks)] == [2, 3]
    assert pair_picks("indexing", picks) == []
    imports = ('from __future__ import annotations\nimport os, sys\n'
               'from .base import (compose,\n    identity)\n'
               'from .x import y  # noqa: F401\nfrom .z import w as v\n'
               '__all__ = ["v"]\nprint(sys.argv, compose)\n')
    assert unused_imports(imports) == [(2, "os"), (3, "identity")]
    depths = ('def f(X, depth=None):\n    return lambda n, depth=3: n\n'
              'def omega_pro_object(v, s, depth=16):\n    pass\n'
              'class A:\n    def m(self, *, depth):\n        pass\n'
              'def g(X, d=None):\n    pass\n')
    assert depth_parameters("strict", depths) == [(1, "f"), (2, "<lambda>"), (6, "m")]
    assert depth_parameters("verify", depths) == []
    replay = ('class Loader:\n    def obj(self, d):\n'
              '        return obj_from_doc(self.instance, d)\n'
              'def _verify_a(instance, doc):\n    return docio.map_from_doc(doc)\n'
              'def _verify_b(load, doc, *, depth):\n    pass\n'
              'def _verify_c(load, doc):\n    return poset_from_doc(doc)\n'
              '_HANDLERS = {"a": _verify_a, "b": _verify_b, "c": _verify_c}\n')
    assert reader_calls(replay) == [(5, "map_from_doc"), (9, "poset_from_doc")]
    assert handler_parameters(replay) == ({"_verify_a", "_verify_b", "_verify_c"},
                                          [(4, "_verify_a"), (6, "_verify_b")])
    blocks = ('def f(X, g):\n    return X.D, g.F.rows, X._offs[0], X._start(1),'
              ' X.d(0), g.mat(0), X.dim(0)\n')
    assert block_reads("strict", blocks) == [(2, "X.D"), (2, "g.F"), (2, "X._offs"),
                                             (2, "X._start")]
    assert block_reads("chainf2", blocks) == []


def _last_line(code, *argv):
    """The last line a fresh interpreter prints running *code* on *argv*."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    return out.stdout.splitlines()[-1]


def test_importing_the_cli_loads_no_numpy():
    assert _last_line("import sys, promc.cli; print('numpy' in sys.modules)") == "False"


def test_importing_suites_loads_no_numpy():
    assert _last_line("import sys, promc.suites; print('numpy' in sys.modules)") == "False"


def test_promc_runs_with_numpy_unimportable():
    """``check-axioms`` and one ``gen_level_map`` per shipped instance,
    with ``sys.modules["numpy"] = None`` set before promc is imported,
    so any numpy import would raise."""
    code = ("import sys\nsys.modules['numpy'] = None\n"
            "from promc import cli, suites\nfrom promc.base import SHIPPED\n"
            "from promc.indexing import chain_poset\n"
            "rc = cli.run_command(['check-axioms', '--trials', '2', '--seed', '0'])\n"
            "maps = [suites.gen_level_map(suites.Rng(3), chain_poset(3), inst)"
            " for inst in SHIPPED]\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
            "print(rc, len(maps), sys.modules['numpy'] is None, loaded)")
    assert _last_line(code) == "0 2 True ['numpy']"


@pytest.mark.parametrize("argv", [["hom", "collapse.json", "Y", "X"],
                                  ["adjunction", "collapse.json",
                                   "--base", "pt", "--object", "X"]])
def test_replaying_a_setbij_hom_or_adjunction_loads_no_numpy(tmp_path, argv):
    """Replay of these two certificates runs the SetBij oracle."""
    from promc.cli import run_command
    cert = tmp_path / "cert.json"
    assert run_command([argv[0], str(FIXTURES / argv[1]), *argv[2:],
                        "--out", str(cert)]) == 0
    code = ("import sys\nfrom promc.cli import run_command\n"
            "print(run_command(sys.argv[1:]), 'numpy' in sys.modules)")
    assert _last_line(code, "verify", str(cert)) == "0 False"
