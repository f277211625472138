"""Static checks on the library source."""

import ast
import io
import pathlib
import re
import tokenize

import spherecurve

SRC = pathlib.Path(spherecurve.__file__).parent


def broad_handlers(tree):
    """Line numbers of bare `except:` and `except Exception` clauses,
    alone or in a tuple."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if any(c is None or (isinstance(c, ast.Name) and c.id in ("Exception", "BaseException"))
               for c in caught):
            yield node.lineno


class TestExceptClauses:
    def test_no_broad_handlers(self):
        found = [f"{path.name}:{line}"
                 for path in sorted(SRC.glob("*.py"))
                 for line in broad_handlers(ast.parse(path.read_text()))]
        assert not found, f"catch the library's own errors instead: {found}"

    def test_detector_finds_broad_handlers(self):
        code = ("try:\n    pass\nexcept:\n    pass\n"
                "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
                "try:\n    pass\nexcept ValueError:\n    pass\n")
        assert list(broad_handlers(ast.parse(code))) == [3, 7]


REPO = SRC.parents[1]
DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*\Z")

# public API kept without a caller in src/ or bench/, __all__ or README.md
UNREFERENCED_OK = {
    "with_bounds",                  # the test strategies widen bounds with it
    "random_open_curve",            # random open curves for the tests
}


def public_defs(tree):
    """Names of the top-level functions and classes of a module and of the
    classes' methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, ast.FunctionDef))


def referenced_names(tree):
    """Every name read, attribute and dotted-name string constant, part by
    part.

    Strings count so that tables naming functions (bench/tracing.py) do;
    prose in docstrings and comments does not, nor does the target of an
    assignment."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED_NAME.match(node.value)):
            yield from node.value.split(".")


def private_defs(tree):
    """Names of the private (`_name`, not dunder) top-level functions,
    classes and assigned constants of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (name for name in names
                    if name.startswith("_") and not name.startswith("__"))


def used_names(referring):
    return {name for text in referring for name in referenced_names(ast.parse(text))}


def unreferenced(defining, referring, exported, documented):
    """Public defs of the `defining` sources that no `referring` source
    names, sorted, less those `exported` or `documented`."""
    used = used_names(referring)
    return sorted({name for text in defining for name in public_defs(ast.parse(text))
                   if not name.startswith("_") and name not in used
                   and name not in exported and name not in documented})


def unreferenced_private(defining, referring):
    """Private top-level defs of the `defining` sources that no `referring`
    source names, sorted."""
    used = used_names(referring)
    return sorted({name for text in defining for name in private_defs(ast.parse(text))
                   if name not in used})


class TestDeadCode:
    def test_public_api_has_a_caller(self):
        lib = [p.read_text() for p in sorted(SRC.glob("*.py"))]
        bench = [p.read_text() for p in sorted((REPO / "bench").glob("*.py"))]
        documented = set(re.findall(r"\w+", (REPO / "README.md").read_text()))
        dead = unreferenced(lib, lib + bench, set(spherecurve.__all__), documented)
        assert sorted(set(dead) - UNREFERENCED_OK) == [], \
            "delete these or give them a caller"

    def test_detector_finds_unreferenced_defs(self):
        lib = ("def used():\n    pass\n"
               "def dead():\n    '''used and traced are named here'''\n"
               "def exported():\n    pass\n"
               "def documented():\n    pass\n"
               "def traced():\n    pass\n"
               "def _private():\n    pass\n"
               "class K:\n"
               "    def method(self):\n        used()\n"
               "    def dead_method(self):\n        pass\n"
               "    def __repr__(self):\n        return ''\n"
               "class DeadClass:\n    '''K is named here'''\n")
        caller = "K().method()\nTARGETS = ('mod', 'traced')\n"
        assert unreferenced([lib], [lib, caller], {"exported"}, {"documented"}) \
            == ["DeadClass", "dead", "dead_method"]

    def test_private_helpers_have_a_caller(self):
        lib = [p.read_text() for p in sorted(SRC.glob("*.py"))]
        others = [p.read_text() for d in ("bench", "tests")
                  for p in sorted((REPO / d).glob("*.py"))]
        assert unreferenced_private(lib, lib + others) == [], \
            "delete these helpers and constants or give them a caller"

    def test_detector_finds_unreferenced_private_defs(self):
        lib = ("def _used():\n    pass\n"
               "def _left_behind():\n    '''_used is named here'''\n"
               "class _Dead:\n    def _method(self):\n        pass\n"
               "def _tested():\n    pass\n"
               "def __getattr__(name):\n    pass\n"
               "def public():\n    return _used()\n")
        test = "import mod\nmod._tested()\n"
        assert unreferenced_private([lib], [lib, test]) == ["_Dead", "_left_behind"]

    def test_detector_finds_unreferenced_private_constants(self):
        lib = ("_USED = 64\n"
               "_LEFT_OVER = 512\n"
               "_ANNOTATED: int = 3\n"
               "_PATCHED = 1e-9\n"
               "__version__ = '1'\n"
               "PUBLIC = 2\n"
               "def public(x=_USED):\n    '_LEFT_OVER is named here'\n"
               "    _local = 1\n    return _local\n")
        test = "import mod\nmonkeypatch.setattr(mod, '_PATCHED', 0.0)\n"
        assert unreferenced_private([lib], [lib, test]) == ["_ANNOTATED", "_LEFT_OVER"]


BACKTICKED = re.compile(r"`([^`\n]+)`")
PRIVATE_NAME = re.compile(r"(?<!\w)_[A-Za-z]\w*")


def docs_and_comments(source):
    """The docstrings and comments of a module's source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            yield token.string


def defined_names(tree):
    """Every name a module defines at any depth: functions, classes and
    methods, assigned names and attributes, and parameters."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
            yield node.id if isinstance(node, ast.Name) else node.attr
        elif isinstance(node, ast.arg):
            yield node.arg


def stale_private_names(sources, readme):
    """Private names (`_name`, alone or dotted) in backticks in the README
    or in the sources' docstrings and comments that no source defines,
    sorted."""
    texts = [readme] + [text for source in sources for text in docs_and_comments(source)]
    named = {name for text in texts for span in BACKTICKED.findall(text)
             for name in PRIVATE_NAME.findall(span)}
    defined = {name for source in sources for name in defined_names(ast.parse(source))}
    return sorted(named - defined)


def module_names(tree):
    """Every name a module defines (`defined_names`) or imports."""
    yield from defined_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)


def stale_module_names(modules, readme):
    """`module.name` spans in backticks in the README or in the modules'
    docstrings and comments, the module one of `modules` (a dict of module
    name to source), whose name that module neither defines nor imports,
    sorted as "module.name"."""
    texts = [readme] + [text for source in modules.values()
                        for text in docs_and_comments(source)]
    dotted = re.compile(r"(?<![\w./])(%s)\.(?!py\b)([A-Za-z_]\w*)"
                        % "|".join(map(re.escape, modules)))
    named = {pair for text in texts for span in BACKTICKED.findall(text)
             for pair in dotted.findall(span)}
    known = {module: set(module_names(ast.parse(source)))
             for module, source in modules.items()}
    return sorted(f"{module}.{name}" for module, name in named if name not in known[module])


class TestStaleNames:
    def test_docs_name_only_defined_private_names(self):
        lib = [p.read_text() for p in sorted(SRC.glob("*.py"))]
        stale = stale_private_names(lib, (REPO / "README.md").read_text())
        assert stale == [], "these private names are not defined in src/: update the docs"

    def test_docs_name_only_defined_module_names(self):
        modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))
                   if p.stem != "__init__"}
        stale = stale_module_names(modules, (REPO / "README.md").read_text())
        assert stale == [], "these module members are not in src/: update the docs"

    def test_detector_finds_stale_module_names(self):
        modules = {
            "geo": ('from math import pi as PI\n'
                    'def kept(x):\n'
                    '    """Calls `geo.kept(x)`, `geo.PI` and `geo.gone`, not `geo.py`."""\n'
                    '    return x  # see `other.kept` and `other.dropped()`\n'),
            "other": 'def kept():\n    pass\n',
        }
        readme = ("`geo.kept.attr` and `other.old_helper`; `mygeo.gone`, "
                  "`tests/test_geo.py` and `tol.geo` are not module members\n")
        assert stale_module_names(modules, readme) \
            == ["geo.gone", "other.dropped", "other.old_helper"]

    def test_detector_finds_stale_names(self):
        lib = ('def _kept(_arg):\n'
               '    """Calls `_kept` and `mod._gone(x)`; `a_b` is no private name."""\n'
               '    _local = 1  # see `_local`, `_arg` and `_dropped`\n'
               '    return _local\n'
               'class K:\n'
               '    def _method(self):\n'
               '        self._cache = "not `_in_code`"\n')
        readme = "`K._method` and `K._cache`, `_kept()`, `_old_helper` and `__init__`\n"
        assert stale_private_names([lib], readme) == ["_dropped", "_gone", "_old_helper"]


def quat_exp_users(tree):
    """The functions of a module that name `quat_exp` in code (a call or
    an alias, bare or as an attribute), as "function" or "Class.method",
    the outermost enclosing def; "<module>" for top-level code."""
    def names(node):
        return any((isinstance(n, ast.Name) and n.id == "quat_exp")
                   or (isinstance(n, ast.Attribute) and n.attr == "quat_exp")
                   for n in ast.walk(node))

    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from (f"{node.name}.{item.name}" for item in node.body
                        if isinstance(item, ast.FunctionDef) and names(item))
        elif isinstance(node, ast.FunctionDef):
            if names(node):
                yield node.name
        elif names(node):
            yield "<module>"


class TestOneArcKernel:
    """Arcs H exp(d (wx i + wz k)) of a record go through `curves._arc_nodes`;
    `sphere.quat_exp` keeps one caller, `grafting._exp_chain`, whose axes
    are world-frame vectors with a j part."""

    def test_only_exp_chain_uses_quat_exp(self):
        found = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
                 for name in quat_exp_users(ast.parse(path.read_text()))]
        assert found == ["grafting._exp_chain"], "evaluate arcs with curves._arc_nodes"

    def test_detector_finds_quat_exp_users(self):
        code = ("from .sphere import quat_exp\n"
                "def _exp_chain(v):\n    return sphere.quat_exp(v)\n"
                "def bare(v):\n    return quat_exp(v)\n"
                "def documented(v):\n    '''quat_exp is named here'''\n"
                "    return sphere.quat_mul(v, v)  # and quat_exp here\n"
                "class K:\n"
                "    def method(self, v):\n"
                "        def inner():\n            return sphere.quat_exp(v)\n"
                "        return inner()\n"
                "    def alias(self):\n        f = quat_exp\n        return f\n"
                "X = sphere.quat_exp([0.0, 0.0, 1.0])\n")
        assert list(quat_exp_users(ast.parse(code))) \
            == ["_exp_chain", "bare", "K.method", "K.alias", "<module>"]


BATCHED = {"quat_mul", "quat_exp", "quat_conj", "_arc_nodes", "_based", "quat_to_rotation",
           "rotation_to_quat"}
# the log-depth level loops of the two quaternion scans
LEVEL_LOOPS = {"curves._chain_quats", "curves._chain_products"}


def looped_calls(tree, module):
    """The functions of a module that call one of `BATCHED` (bare or as an
    attribute) inside the body of a `for` or `while` loop, or inside a
    comprehension past its first iterable, which runs once; as
    "module.function" or "module.Class.method", the outermost enclosing
    def, "module.<module>" for top-level code, each once."""
    found = []

    def visit(node, owner, looped):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and owner is None:
            owner = node.name
        if isinstance(node, ast.ClassDef) and owner is None:
            for item in node.body:
                visit(item, f"{node.name}.{item.name}"
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) else None,
                      looped)
            return
        if looped and isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            where = f"{module}.{owner or '<module>'}"
            if name in BATCHED and where not in found:
                found.append(where)
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            visit(node.iter if isinstance(node, (ast.For, ast.AsyncFor)) else node.test,
                  owner, looped or isinstance(node, ast.While))
            for child in node.body + node.orelse:
                visit(child, owner, True)
            return
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            visit(node.generators[0].iter, owner, looped)
            for child in ast.iter_child_nodes(node):
                if child is not node.generators[0]:
                    visit(child, owner, True)
            first = node.generators[0]
            for child in [first.target] + first.ifs:
                visit(child, owner, True)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, owner, looped)

    visit(tree, None, False)
    return found


class TestBatchedQuaternionLayer:
    """The quaternion and arc kernels run once over a batch: no src/
    function calls them per item in a Python loop, save the scans' log-depth
    level loops."""

    def test_no_kernel_call_in_a_loop(self):
        found = [where for path in sorted(SRC.glob("*.py"))
                 for where in looped_calls(ast.parse(path.read_text()), path.stem)]
        assert sorted(set(found) - LEVEL_LOOPS) == [], "batch these calls"

    def test_level_loops_are_found(self):
        # the exemptions name loops that are there
        found = {where for path in sorted(SRC.glob("*.py"))
                 for where in looped_calls(ast.parse(path.read_text()), path.stem)}
        assert LEVEL_LOOPS <= found

    def test_detector_finds_looped_calls(self):
        code = ("def batched(q):\n    return sphere.quat_mul(q, quat_conj(q))\n"
                "def per_item(qs):\n    out = []\n"
                "    for q in sphere.quat_exp(qs):\n        out.append(quat_mul(q, q))\n"
                "    return out\n"
                "def comprehension(qs):\n    return [sphere.quat_exp(q) for q in qs]\n"
                "def first_iterable(qs):\n    return [q for q in _based(qs)]\n"
                "def condition(qs):\n    return [q for q in qs if quat_to_rotation(q)[0, 0]]\n"
                "def inner_generator(qs):\n"
                "    return [p for q in qs for p in rotation_to_quat(q)]\n"
                "def while_test(q):\n    while quat_mul(q, q)[0] > 0:\n        q = -q\n"
                "def documented(qs):\n    '''quat_mul in a for loop'''\n"
                "    for q in qs:\n        print(q)  # quat_mul(q, q)\n"
                "def other(qs):\n    for q in qs:\n        sphere.quat_pow(q)\n"
                "class K:\n"
                "    def method(self, qs):\n"
                "        def inner(q):\n            return _arc_nodes(q, 1.0, 0.0, q)\n"
                "        return list(map(inner, qs))\n"
                "    def looped(self, qs):\n"
                "        while qs:\n"
                "            def inner():\n                return _arc_nodes(qs, 1.0, 0.0, qs)\n"
                "            qs = inner()\n"
                "for q in QS:\n    X = quat_mul(q, q)\n")
        assert looped_calls(ast.parse(code), "m") \
            == ["m.per_item", "m.comprehension", "m.condition", "m.inner_generator",
                "m.while_test", "m.K.looped", "m.<module>"]


def environment_reads(tree):
    """Line numbers of the names `environ` and `getenv`, bare or as an
    attribute (`os.environ`, `os.getenv`)."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")) \
                or (isinstance(node, ast.Name) and node.id in ("environ", "getenv")):
            yield node.lineno


BOUNDARY = {"stderr", "_write", "_tol_from_args"}


def boundary_users(tree):
    """The top-level defs of a module other than `main` that name
    `sys.stderr`, `_write` or `_tol_from_args`, and "<module>" for module
    code that does; a def's own name does not count."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "main":
            continue
        if any((isinstance(sub, ast.Attribute) and sub.attr in BOUNDARY)
               or (isinstance(sub, ast.Name) and sub.id in BOUNDARY)
               for sub in ast.walk(node)):
            yield node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                else "<module>"


class TestOneCliBoundary:
    """Settings come from the command line and the tolerance profile, never
    from the environment; `cli.main` alone reads the profile, writes the
    output and reports errors."""

    def test_no_environment_reads(self):
        found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
                 for line in environment_reads(ast.parse(path.read_text()))]
        assert not found, f"take the setting as a flag or a profile field: {found}"

    def test_only_main_is_the_boundary(self):
        assert list(boundary_users(ast.parse((SRC / "cli.py").read_text()))) == []

    def test_detector_finds_environment_reads(self):
        code = ("import os\nfrom os import getenv\n"
                "A = os.environ.get('A')\n"
                "def f():\n    '''os.environ is named here'''\n    return os.getenv('B')\n"
                "def g(env=environ):\n    return env\n"
                "def h():\n    return os.path.join('a')  # os.environ\n")
        assert sorted(environment_reads(ast.parse(code))) == [3, 6, 7]

    def test_detector_finds_boundary_users(self):
        code = ("import sys\n"
                "def _write(path, lines):\n    pass\n"
                "def _tol_from_args(args):\n    '''_write is named here'''\n"
                "def cmd_a(args, tol):\n    _write(args.output, [])\n"
                "def cmd_b(args, tol):\n    print('x', file=sys.stderr)\n"
                "def cmd_c(args, tol):\n    return [], 0\n"
                "class K:\n    def m(self, args):\n        return _tol_from_args(args)\n"
                "def main(argv=None):\n"
                "    print('x', file=sys.stderr)\n    _write('-', _tol_from_args(argv))\n"
                "sys.stderr.write('x')\n")
        assert list(boundary_users(ast.parse(code))) == ["cmd_a", "cmd_b", "K", "<module>"]
