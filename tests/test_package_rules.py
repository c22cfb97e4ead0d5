"""Rules that the package source keeps, read off its syntax trees.

Each test collects the offending places into `found` and fails listing
them, so a local tier-1 run catches a violation as CI does."""

import ast
import pathlib
import re

import thickrep
from thickrep import fields

# the package these tests import, so a rule never passes on an empty tree
PACKAGE = pathlib.Path(thickrep.__file__).parent
# the checkout around it: README, the benchmark harness and the tools
ROOT = PACKAGE.parents[1]
README = ROOT / "README.md"
# the tracer's tables of dotted names that it resolves in the package
TRACED_TABLES = ("SPAN_LAYERS", "FIELD_CLASSES", "FIELD_OPS")


def _trees():
    return {path: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.rglob("*.py"))}


def test_no_assert_statement_in_the_package():
    # python -O strips asserts, so none may carry a check
    found = ["%s:%d" % (path, node.lineno)
             for path, tree in _trees().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not found, "\n".join(found)


def test_no_unused_import_in_the_package():
    # __init__.py imports to re-export; __future__ imports change the compiler
    found = []
    for path, tree in _trees().items():
        if path.name == "__init__.py":
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += ["%s:%d: %s" % (path, node.lineno, name)
                          for name in ((a.asname or a.name).split(".")[0]
                                       for a in node.names)
                          if name not in used]
    assert not found, "\n".join(found)


def _public_surface():
    """The backquoted names in the list of README's *Public surface*
    section: its paragraphs that open with "- "."""
    text = README.read_text(encoding="utf-8")
    start = text.find("\n## Public surface\n")
    if start < 0:
        return set()
    end = text.find("\n## ", start + 1)
    section = text[start:end if end >= 0 else len(text)]
    return {name for block in section.split("\n\n") if block.startswith("- ")
            for name in re.findall(r"`([A-Za-z_]\w*)`", block)}


def _exports():
    """The public names that __init__.py binds: what `import thickrep`
    exports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def _readers():
    """Every name that code outside __init__.py reads: the package's other
    modules, the benchmark harness and the tools.  A name, an attribute or
    an import counts, and so does each part of a dotted name that the
    harness's tracer resolves from its string tables."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    named = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.asname or node.name)
            elif (isinstance(node, ast.Assign) and path.name == "tracing.py"
                  and any(isinstance(t, ast.Name) and t.id in TRACED_TABLES
                          for t in node.targets)):
                named.update(part for elt in ast.walk(node.value)
                             if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                             for part in elt.value.split("."))
    return named


def test_no_unused_function_or_class_in_the_package():
    # a module-level def or class, and a method that is not a dunder, must
    # be read outside __init__.py: by another package module, the harness
    # or a tool (tests do not count).  Exempt are the public surface that
    # README states and the cmd_* handlers that cli dispatches through
    # globals()
    named = _readers() | _public_surface()
    found = []
    for path, tree in _trees().items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in named and not (
                    path.name == "cli.py" and node.name.startswith("cmd_")):
                found.append("%s:%d: %s" % (path, node.lineno, node.name))
            if isinstance(node, ast.ClassDef):
                found += ["%s:%d: %s.%s" % (path, m.lineno, node.name, m.name)
                          for m in node.body
                          if isinstance(m, ast.FunctionDef)
                          and not (m.name.startswith("__") and m.name.endswith("__"))
                          and m.name not in named]
    assert not found, "\n".join(found)


def test_the_public_surface_in_readme_is_what_init_exports():
    # README's *Public surface* lists exactly the names `import thickrep`
    # exports, so neither drifts from the other
    stated, exported = _public_surface(), _exports()
    assert stated == exported, (
        "stated, not exported: %s; exported, not stated: %s"
        % (sorted(stated - exported), sorted(exported - stated)))


def test_the_rep_memo_is_written_only_through_memoised():
    # repcore._memoised stores every per-rep fact and never memoises a
    # raised error; a subscript store or delete on `._memo`, or a
    # mutating dict method called on it, anywhere else fails
    found = []

    def walk(node, path):
        if isinstance(node, ast.FunctionDef) and node.name == "_memoised":
            return
        target = None
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            target = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and \
                node.func.attr in ("setdefault", "update", "pop", "popitem", "clear"):
            target = node.func.value
        if isinstance(target, ast.Attribute) and target.attr == "_memo":
            found.append("%s:%d" % (path, node.lineno))
        for child in ast.iter_child_nodes(node):
            walk(child, path)

    for path, tree in _trees().items():
        walk(tree, path)
    assert not found, "\n".join(found)


def test_every_cap_is_read_in_the_package():
    # a field of repcore.Caps must be read as an attribute `.<name>`
    # somewhere in the package, so no cap outlives its last reader
    trees = _trees()
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = ["%s:%d: Caps.%s" % (path, node.lineno, node.target.id)
             for path, tree in trees.items() for cls in tree.body
             if isinstance(cls, ast.ClassDef) and cls.name == "Caps"
             for node in cls.body
             if isinstance(node, ast.AnnAssign) and node.target.id not in read]
    assert not found, "\n".join(found)


def test_every_field_defines_the_same_row_operations():
    # one code path for field arithmetic: elimination and minors call
    # these on any field, so each field class defines every one itself
    ops = {"dot", "axpy", "scale", "minors2", "row_key"}
    classes = (fields.Rationals, fields.PrimeField, fields.ExtensionField)
    found = ["%s lacks %s" % (cls.__name__, ", ".join(sorted(ops - set(vars(cls)))))
             for cls in classes
             if not ops <= set(vars(cls))]
    found += ["%s.%s is not callable" % (cls.__name__, op)
              for cls in classes for op in sorted(ops & set(vars(cls)))
              if not callable(vars(cls)[op])]
    assert not found, "\n".join(found)
