"""Checks on the package source itself."""

import ast
import re
from pathlib import Path

import ffzeta

SOURCES = sorted(Path(ffzeta.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_package():
    # python -O strips assert statements; soundness checks must raise
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d" % (path.name, node.lineno))
    assert len(SOURCES) > 1
    assert found == []


def test_caps_are_not_parameters():
    # each size cap is a constant of the module that enforces it
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                a = node.args
                if "limits" in [x.arg for x in
                                a.posonlyargs + a.args + a.kwonlyargs]:
                    found.append("%s:%d" % (path.name, node.lineno))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [x.name for x in node.names]
                if isinstance(node, ast.ImportFrom):
                    names.append(node.module or "")
                if any("config" in name.split(".") for name in names):
                    found.append("%s:%d" % (path.name, node.lineno))
    assert len(SOURCES) > 1
    assert "config.py" not in [path.name for path in SOURCES]
    assert found == []


def test_only_fq_reads_the_digit_encoding():
    # the plane codec and the fold through the modulus live in fq
    found = []
    for path in SOURCES:
        if path.name == "fq.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("reduction", "_bpow")):
                found.append("%s:%d" % (path.name, node.lineno))
    assert len(SOURCES) > 1
    assert found == []


def test_only_fq_knows_which_fields_carry_tables():
    # other modules ask a field for its tables and get None past the caps
    caps = re.compile(r"_P2_VECTOR_CAP|_ODD_VECTOR_CAP|_LIST_CAP")
    found = [path.name for path in SOURCES
             if path.name != "fq.py" and caps.search(path.read_text())]
    assert len(SOURCES) > 1
    assert found == []


def test_oracle_shares_no_polynomial_arithmetic():
    # the oracle checks the pipelines, so of `poly` it takes only the
    # polynomial type; its division is its own
    path = Path(ffzeta.__file__).parent / "oracle.py"
    imported = [alias.name
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "poly"
                for alias in node.names]
    assert imported == ["SparsePoly"]


def _names_used(top):
    used = set()
    for node in ast.walk(top):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_private_helpers_are_used():
    # a private function or class that nothing in the package refers to
    # is dead code
    trees = [ast.parse(path.read_text(), str(path)) for path in SOURCES]
    defined, used = {}, set()
    for path, tree in zip(SOURCES, trees):
        used |= _names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not name.endswith("__"):
                    defined[name] = "%s:%d" % (path.name, node.lineno)
    assert len(defined) > 10
    assert sorted(loc for name, loc in defined.items()
                  if name not in used) == []


PLANE_PRODUCTS = ("matmul", "convolve", "multiply", "dot", "einsum")


def test_plane_products_go_through_mul_planes():
    # outside fq, a numpy product of planes is only ever the op of
    # _mul_planes, whose int64 bound then covers it
    found = []
    for path in SOURCES:
        if path.name == "fq.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        ops = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else \
                    getattr(func, "id", None)
                if name == "_mul_planes":
                    ops.update(id(a) for a in node.args[:1])
                    ops.update(id(k.value) for k in node.keywords
                               if k.arg == "op")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr in PLANE_PRODUCTS
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")
                    and id(node) not in ops):
                found.append("%s:%d" % (path.name, node.lineno))
            elif (isinstance(node, ast.ImportFrom)
                  and node.module == "numpy"
                  and any(a.name in PLANE_PRODUCTS for a in node.names)):
                found.append("%s:%d" % (path.name, node.lineno))
    assert len(SOURCES) > 1
    assert found == []


REPO = Path(ffzeta.__file__).parents[2]


def _attributes(node, own=False):
    """Attribute names read under node; `self.<name>` reads only when own,
    as they count only for the class that makes them."""
    return {sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute)
            and (own or not (isinstance(sub.value, ast.Name)
                             and sub.value.id == "self"))}


def _readme_code():
    """The README's fenced blocks, without their `#` comments, and its code
    spans; a name listed as removed is not documented by it."""
    readme = (REPO / "README.md").read_text()
    readme = re.sub(r"Removed names:.*?\n\n", "", readme, flags=re.S)
    return "\n".join(re.sub(r"#.*", "", code) if code.startswith("```")
                     else code
                     for code in re.findall(r"```.*?```|`[^`]+`", readme,
                                            flags=re.S))


def test_public_names_have_a_caller():
    # a public module-level function or class that no module of the
    # package (its own def and __init__ aside) and no benchmark refers to,
    # and that the README does not show in code, serves only the tests;
    # so does a public method whose name no other code of the package and
    # no benchmark reads as an attribute, and that the README does not
    # show in code; a `self.<name>` read counts only for its own class
    modules = {path: ast.parse(path.read_text(), str(path))
               for path in SOURCES if path.name != "__init__.py"}
    scripts = sorted(REPO.glob("perfbench/*.py"))
    bench = "\n".join(path.read_text() for path in scripts)
    bench_attrs = set().union(*(_attributes(ast.parse(path.read_text()))
                                for path in scripts))
    readme = _readme_code()
    refs = [(top, _names_used(top))
            for tree in modules.values() for top in tree.body]
    attrs = [(top, _attributes(top))
             for tree in modules.values() for top in tree.body]
    found = []
    methods = 0
    for path, tree in modules.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            word = re.compile(r"\b%s\b" % node.name)
            if not (any(node.name in used
                        for top, used in refs if top is not node)
                    or word.search(bench) or word.search(readme)):
                found.append("%s:%s" % (path.name, node.name))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            members = [(sib, _attributes(sib, own=True))
                       for sib in cls.body]
            for node in cls.body:
                if (not isinstance(node, ast.FunctionDef)
                        or node.name.startswith("_")):
                    continue
                methods += 1
                word = re.compile(r"\b%s\b" % node.name)
                if not (any(node.name in used
                            for top, used in attrs if top is not cls)
                        or any(node.name in used
                               for sib, used in members if sib is not node)
                        or node.name in bench_attrs
                        or word.search(readme)):
                    found.append("%s:%s.%s" % (path.name, cls.name,
                                               node.name))
    assert len(modules) > 1
    assert methods > 20
    assert found == []


def test_no_module_level_caches():
    # every memo is a functools.cache builder or a per-context
    # functools.cached_property, so no module binds a *_CACHE name
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        names = [node.id for top in tree.body
                 if not isinstance(top, (ast.FunctionDef, ast.ClassDef))
                 for node in ast.walk(top)
                 if isinstance(node, ast.Name)
                 and isinstance(node.ctx, ast.Store)]
        names += [name for node in ast.walk(tree)
                  if isinstance(node, ast.Global) for name in node.names]
        found += ["%s:%s" % (path.name, name) for name in names
                  if name.endswith("_CACHE")]
    assert len(SOURCES) > 1
    assert found == []
