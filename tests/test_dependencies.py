"""The package depends on nothing outside the standard library, starts
without the heavy parts of it, keeps no memo in a module-level cache, reads
its kept results only through their accessors, builds records without their
checks in one helper only, sets record fields in one constructor, states
the permutation rule in one predicate, certifies the oracle's search in one
scope that the search never calls, prints `smq transform` from the value
table that the audits read, every public name has a reader outside
the tests, and every docstring cross-reference names what exists."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import smq

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "smq"


# Derived results live on the records they derive from, so they never
# travel with a pickle and never outlive their record in a module cache.
MEMOIZERS = {"lru_cache", "cache", "cached_property"}


def test_src_imports_only_the_standard_library_and_smq():
    outside = []
    heavy = []
    memos = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                memos += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name in MEMOIZERS or alias.name == "*"]
            elif isinstance(node, ast.Attribute) and node.attr in MEMOIZERS:
                # functools.cache, or the same through any alias of functools
                memos.append(f"{path.name}:{node.lineno} .{node.attr}")
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "smq" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno} {name}")
                if top == "dataclasses":
                    heavy.append(f"{path.name}:{node.lineno} {name}")
    assert not outside, outside
    assert not heavy, heavy
    assert not memos, memos


# The functions outside instances.py, its owner, that read the memo of kept
# results; every other reader goes through them.
KEPT_READERS = {("link.py", "_strengths"), ("oracle.py", "_stable_marriages")}

# The one function that builds a record without the checks of its __init__;
# every other builder of a record calls the record or this function.
TRUSTED_BUILDERS = {("instances.py", "_trusted")}

# The one predicate that tells a permutation of 0..n-1; every other check of
# a marriage, a strict list, an order or a weak list's candidates calls it.
PERMUTATION_RULE = {("instances.py", "_permutes")}


# Each attribute with the top-level scopes, (file, name), that alone may
# use it, and the file exempt from the rule as its owner, if any.
@pytest.mark.parametrize("attribute, scopes, owner", [
    ("_kept", KEPT_READERS, "instances.py"),
    ("__new__", TRUSTED_BUILDERS, None),
    ("issuperset", PERMUTATION_RULE, None),
], ids=["kept-results", "trusted-builder", "permutation-rule"])
def test_only_the_named_scopes_use_the_attribute(attribute, scopes, owner):
    stray = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == owner:
            continue
        for scope in ast.parse(path.read_text(encoding="utf-8")).body:
            if (path.name, getattr(scope, "name", None)) in scopes:
                continue
            stray += [f"{path.name}:{node.lineno}" for node in ast.walk(scope)
                      if isinstance(node, ast.Attribute) and node.attr == attribute]
    assert not stray, stray


def names_in(scope) -> set[str]:
    return {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}


def test_the_oracle_certifies_in_one_scope_and_its_search_in_none():
    # `_scan` searches one value table and gap; `_certified` alone audits
    # what it finds, so dropping the runtime check is one deletion there
    body = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8")).body
    certifiers = [getattr(scope, "name", f"line {scope.lineno}") for scope in body
                  if "is_stable" in names_in(scope)]
    assert certifiers == ["_certified"]
    search = next(scope for scope in body if getattr(scope, "name", None) == "_scan")
    assert names_in(search).isdisjoint({"is_stable", "_marriage", "_table"})


# The views built only to print them; `smq transform` prints the notion's
# value table instead, as the audits and the oracle read it.
PRINT_ONLY_VIEWS = {"alpha_transform", "derive_classical", "link_transform"}


def test_the_cli_prints_transforms_from_the_value_table():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    named = {getattr(node, attr) for node in ast.walk(tree)
             for attr in ("id", "attr", "name") if isinstance(getattr(node, attr, None), str)}
    assert named.isdisjoint(PRINT_ONLY_VIEWS), sorted(named & PRINT_ONLY_VIEWS)


# The one constructor that sets a record's fields, and the memo slots it
# leaves to the records that keep them; every other record calls it.
FIELD_SETTER = ("_Record", "__init__")
MEMO_SLOTS = {"_kept", "_source"}


def test_records_set_their_fields_in_one_constructor():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        for scope in ast.parse(path.read_text(encoding="utf-8")).body:
            methods = scope.body if isinstance(scope, ast.ClassDef) else [scope]
            for method in methods:
                names = (getattr(scope, "name", None), getattr(method, "name", None))
                if (path.name, names) == ("instances.py", FIELD_SETTER):
                    continue
                stray += [f"{path.name}:{node.lineno}" for node in ast.walk(method)
                          if isinstance(node, ast.Call) and ast.unparse(node.func) ==
                          "object.__setattr__" and not (
                              len(node.args) == 3 and isinstance(node.args[1], ast.Constant)
                              and node.args[1].value in MEMO_SLOTS)]
    assert not stray, stray
    # the records that check no rule take the shared constructor as it is
    plain = (smq.BlockingPair, smq.BlockingReport, smq.StableSet)
    assert [cls.__name__ for cls in plain if "__init__" in vars(cls)] == []


def test_the_cli_starts_without_dataclasses_inspect_or_a_process_pool():
    # dataclasses imports inspect and generates each class's methods with
    # exec; concurrent.futures is imported only when --jobs asks for workers
    code = "import sys, smq.cli; print(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    loaded = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert {"dataclasses", "inspect", "concurrent.futures"}.isdisjoint(loaded)


def test_every_public_name_is_read_outside_the_tests():
    paths = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    assert sorted(set(smq.__all__) - read) == []


# A docstring names a module, function, class or method as :role:`target`.
CROSS_REFERENCE = re.compile(r":(func|class|meth|mod):`([^`]*)`")


def test_docstring_cross_references_name_what_exists():
    # a target resolves in any module of the package, with or without the
    # "smq." and module prefixes; a method may be named with its class
    defined = {"mod": {"smq"}, "func": set(), "class": set(), "meth": set()}
    for path in SRC.glob("*.py"):
        defined["mod"].add(f"smq.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined["func"].add(node.name)
            elif isinstance(node, ast.ClassDef):
                defined["class"].add(node.name)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        defined["meth"] |= {item.name, f"{node.name}.{item.name}"}
    modules = {name.removeprefix("smq.") for name in defined["mod"]}
    unresolved = []
    for path in sorted(SRC.glob("*.py")):
        for role, target in CROSS_REFERENCE.findall(path.read_text(encoding="utf-8")):
            name = target
            if role != "mod":
                parts = target.split(".")
                while len(parts) > 1 and parts[0] in modules:
                    parts.pop(0)
                name = ".".join(parts)
            if name not in defined[role]:
                unresolved.append(f"{path.name} :{role}:`{target}`")
    assert not unresolved, unresolved
