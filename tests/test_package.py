"""Package surface: every name a module exports exists, and the runtime
imports nothing outside the standard library."""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import bhkovacic

MODULES = ["bhkovacic"] + [
    f"bhkovacic.{info.name}" for info in pkgutil.iter_modules(bhkovacic.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def _imported_top_modules(path):
    """Top-level names of the modules one source file imports (relative: the package)."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "bhkovacic" if node.level else node.module.partition(".")[0]


SOURCES = sorted(pathlib.Path(bhkovacic.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_only_the_standard_library(path):
    outside = {
        name
        for name in _imported_top_modules(path)
        if name != "bhkovacic" and name not in sys.stdlib_module_names
    }
    assert not outside, f"{path.name} imports {sorted(outside)}"


def _environment_reads(path):
    """Lines of one source file that name os.environ or os.getenv (or their bytes forms)."""
    readers = {"environ", "environb", "getenv", "getenvb"}
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in readers:
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and any(a.name in readers for a in node.names):
            yield node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_reads_no_environment_variable(path):
    # what runs follows the arguments and the machine, so identical
    # commands give identical reports
    reads = list(_environment_reads(path))
    assert not reads, f"{path.name} reads the environment at lines {reads}"


PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
# exported on purpose with no caller in the program
UNCALLED_EXPORTS = {
    "rat_from_str": "the documented reader of the report's number format",
    "build_nu": "the README's independent reference for partial_fractions",
}


def _used_names(path):
    """Names one file uses: loaded names, attributes and imported names (no strings)."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _exports(path):
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _functions(path):
    """Every function of one file at module level or in a class."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for item in members:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield item


def test_every_export_has_a_caller():
    # every export and every function or method: a caller is any use in the
    # package, its own module included (a definition is not a use, nor a
    # re-export from __init__), or in the benchmark other than its tests
    callers = [p for p in SOURCES if p.name != "__init__.py"] + [
        p for p in PERFBENCH.glob("*.py") if p.name != "test_perfbench.py"
    ]
    used = set().union(*(_used_names(path) for path in callers))
    exports = {(path.stem, name) for path in SOURCES for name in _exports(path)}
    assert set(UNCALLED_EXPORTS) <= {name for _, name in exports}
    functions = {
        (path.stem, f.name)
        for path in SOURCES
        for f in _functions(path)
        if not (f.name.startswith("__") and f.name.endswith("__"))
    }
    uncalled = sorted(
        f"{module}.{name}"
        for module, name in exports | functions
        if name not in used and name not in UNCALLED_EXPORTS
    )
    assert not uncalled, f"defined or exported but never used: {uncalled}"


# the result types of the package: frozen records are NamedTuples, and the
# three that are filled in after construction are plain classes whose
# ``__init__`` annotates each field it sets
RECORD_CLASSES = {
    "AuxiliaryODE", "FamilyEquation", "HeunForm", "Recurrence3", "VerificationRecord",
    "HomotopyReport", "DetSequence", "S3Record", "ScanReport", "IdentityResult",
    "EqualityReport", "ExpansionReport", "Family", "ThetaSpec", "MarginalCheck",
    "RetentionResult", "NuFraction", "CheckRecord", "Report",
}


def _record_fields(path):
    """(class, field) for every field of a record class in one file: the
    annotated fields of a ``NamedTuple``, and the annotated ``self.field``
    assignments in ``__init__`` of a plain class named in RECORD_CLASSES."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ClassDef):
            continue
        if any(getattr(base, "id", None) == "NamedTuple" for base in node.bases):
            body = node.body
        elif node.name in RECORD_CLASSES:
            body = [s for f in node.body if getattr(f, "name", None) == "__init__" for s in f.body]
        else:
            continue
        for item in body:
            if isinstance(item, ast.AnnAssign):
                target = item.target
                yield node.name, target.id if isinstance(target, ast.Name) else target.attr


def _attributes_read(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_every_dataclass_field_is_read():
    # a read is an attribute load anywhere in the package, the benchmark or
    # the tests; a keyword in a constructor call only writes the field
    tests = sorted(pathlib.Path(__file__).parent.glob("*.py"))
    readers = SOURCES + sorted(PERFBENCH.glob("*.py")) + tests
    read = set().union(*(_attributes_read(path) for path in readers))
    fields = [field for path in SOURCES for field in _record_fields(path)]
    assert {cls for cls, _ in fields} == RECORD_CLASSES
    unread = sorted(f"{cls}.{name}" for cls, name in fields if name not in read)
    assert not unread, f"record fields nothing reads: {unread}"


def test_import_loads_neither_dataclasses_nor_inspect():
    # every start of ``bhk`` pays for its imports: ``dataclasses`` pulls in
    # ``inspect``, ``ast``, ``dis`` and ``tokenize``, and each class it
    # decorates takes about 1 ms to define
    src = pathlib.Path(bhkovacic.__file__).parents[1]
    code = "import sys, bhkovacic.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == ["[]"]


# the only module-level memos: a memo outlives the call that filled it, so
# one more carries work over between runs in one process
ALLOWED_MEMOS = {"kovacic.family_by_label", "auxode.family_equation", "evidence._column"}


def _is_memo(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name in ("lru_cache", "cache")


def _memos(path):
    """module.name of every memoized function at module level or in a class."""
    for item in _functions(path):
        if any(map(_is_memo, item.decorator_list)):
            yield f"{path.stem}.{item.name}"


def test_module_level_memos_are_pinned():
    memos = {memo for path in SOURCES for memo in _memos(path)}
    assert memos == ALLOWED_MEMOS


def _private_imports(path):
    """(module, name) of every private name that one file imports from another module."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    yield node.module, alias.name


def test_no_module_imports_a_private_name_of_another():
    # a private name is its module's own; a caller that needs one reads an
    # export instead, so what runs is what the public names say
    private = {path.name: sorted(_private_imports(path)) for path in SOURCES}
    assert not {name: found for name, found in private.items() if found}


# parameter defaults that no program call varies, each kept for a reason
SINGLE_VALUE_DEFAULTS = {
    "cli.main.argv": "the console entry point, which the installed script calls with no argument",
}


def _defaults(path):
    """(module.[class.]function.parameter, callee, parameter, signature) for
    every default of one file.

    The callee is the name a call uses: the function's, or the class's for
    ``__init__``.  The signature is (positional, keyword-only, defaulted,
    takes *args, takes **kwargs), without ``self`` or ``cls``.
    """
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        owner = node.name if isinstance(node, ast.ClassDef) else None
        for item in node.body if owner else [node]:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = item.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
            if owner and not static:
                positional = positional[1:]
            keyword = [a.arg for a in args.kwonlyargs]
            defaulted = positional[len(positional) - len(args.defaults):] + [
                a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            callee = owner if item.name == "__init__" else item.name
            signature = (positional, keyword, set(defaulted), bool(args.vararg), bool(args.kwarg))
            qualname = f"{owner}.{item.name}" if owner else item.name
            for name in defaulted:
                yield f"{path.stem}.{qualname}.{name}", callee, name, signature


def _passed(call, signature):
    """The parameters one call supplies, or None when the call does not fit the signature."""
    positional, keyword, defaulted, vararg, kwarg = signature
    names = set(positional) | set(keyword)
    passed = set()
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            passed |= set(positional[i:])
            break
        if i >= len(positional):
            if not vararg:
                return None
            break
        passed.add(positional[i])
    for kw in call.keywords:
        if kw.arg is None:
            passed |= names
        elif kw.arg in names:
            passed.add(kw.arg)
        elif not kwarg:
            return None
    return passed if names - defaulted <= passed else None


def _calls(path):
    """(callee name, call node) for every call of one file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name:
                yield name, node


def test_every_default_is_used_by_the_program():
    # a default earns its place when some program call (the package, or the
    # benchmark other than its tests) relies on it and another passes a
    # value; a default that no call omits, or that none overrides, is a
    # constant spelled as an option.  A call of the same name that does not
    # fit the signature is another function's.
    callers = SOURCES + [p for p in PERFBENCH.glob("*.py") if p.name != "test_perfbench.py"]
    calls = {}
    for path in callers:
        for name, call in _calls(path):
            calls.setdefault(name, []).append(call)
    single, found = [], set()
    for path in SOURCES:
        for key, callee, param, signature in _defaults(path):
            found.add(key)
            passed = (_passed(call, signature) for call in calls.get(callee, ()))
            fitting = [p for p in passed if p is not None]
            omitted = any(param not in p for p in fitting)
            overridden = any(param in p for p in fitting)
            if not (omitted and overridden) and key not in SINGLE_VALUE_DEFAULTS:
                single.append(key)
    assert set(SINGLE_VALUE_DEFAULTS) <= found
    assert not single, f"defaults with one value in program use: {single}"


def _usage_error_sites(path):
    """module.function of each ``raise UsageError`` in one file, once per
    raise; the function is the innermost one around it."""

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "UsageError":
                yield f"{path.stem}.{where}"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)

    yield from visit(ast.parse(path.read_text(), filename=str(path)), "<module>")


def test_usage_errors_are_raised_only_where_an_argument_is_refused():
    # ``bhk`` exits 2 on a UsageError, so one raised inside a computation
    # would turn a run that could not finish (exit 1) into a usage error
    sites = sorted(site for path in SOURCES for site in _usage_error_sites(path))
    assert sites == [
        "cli.run_verify_all",
        "evidence.scan",  # unknown family
        "evidence.scan",  # empty grid
        "evidence.scan",  # an --out that cannot be opened
        "master.from_name",
        "master.special_frequency",
    ]
