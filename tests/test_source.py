"""Checks on the library's source text."""

import ast
import importlib.util
import pathlib
import re
import types
from functools import reduce

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "fdcache"
README = PACKAGE.parents[1] / "README.md"


def test_library_has_no_assert():
    # python -O strips assert statements, so a library check must raise
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _is_cache(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name in ("lru_cache", "cache")


def test_no_module_level_cache_is_keyed_by_a_demand():
    # such a cache holds an entry per demand a sweep visits, without bound
    cached = [
        (f"{path.relative_to(PACKAGE)}:{node.name}", {a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs})
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
        if isinstance(node, ast.FunctionDef) and any(map(_is_cache, node.decorator_list))
    ]
    assert cached  # the scan sees the per-parameters caches
    assert [name for name, params in cached if params & {"d", "demand", "dset"}] == []


def test_library_imports_are_used():
    # no linter runs here, so an import whose last reader was deleted would stay
    unread = []
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        lines = text.splitlines()
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                        unread.append(f"{path.relative_to(PACKAGE)}:{alias.lineno}:{name}")
    assert unread == []


# the decoder's functions: the oracle shares only the segment index with the
# decoder and names none of them, so its verdict cannot inherit a decoder fault
DECODER_NAMES = frozenset({
    "lift", "decode_rows", "failing_symbols", "symbol_identities", "_equations",
    "parity_combination", "closure_pair", "reconstructed_pair", "skip_combination",
    "user_pass", "rows_hold",
})
# the decoder's per-cache tables (CacheContent attributes): the oracle reads a
# cache's stored masks only, so a fault in a table cannot reach its verdict
DECODER_TABLES = frozenset({"closures", "closure_mismatches", "supports"})


def _code_names(code):
    """The global and attribute names a code object reads, nested code included."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _code_names(const)
    return names


def test_oracle_names_no_decoder_function():
    from fdcache import harness, scheme

    assert all(callable(getattr(scheme, name)) for name in DECODER_NAMES)  # no name here is stale
    assert all(hasattr(scheme.CacheContent, name) for name in DECODER_TABLES)
    oracle = (harness._oracle_flags, harness._cache_spans.__wrapped__)
    named = {function.__name__: _code_names(function.__code__) for function in oracle}
    assert {name: sorted(names & (DECODER_NAMES | DECODER_TABLES)) for name, names in named.items()} == {
        name: [] for name in named
    }


def test_readme_names_resolve():
    # a backticked module-qualified name, such as `scheme.lift` or
    # `harness.SWEEP_LIMIT`, must name something the package has, so a
    # deleted name cannot stay quoted; a file name such as `scheme.py` is no name
    modules = "|".join(path.stem for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__")
    names = set(re.findall(rf"`((?:{modules})(?:\.\w+)+)", README.read_text(encoding="utf-8")))
    assert names
    unresolved = []
    for name in sorted(name for name in names if not name.endswith(".py")):
        module, *attributes = name.split(".")
        try:
            reduce(getattr, attributes, importlib.import_module(f"fdcache.{module}"))
        except AttributeError:
            unresolved.append(name)
    assert unresolved == []


# each ceiling README.md quotes with its value: a pattern whose group is the
# quoted value, the constant it quotes, and how the value reads as an int
README_CEILINGS = (
    (r"`MAX_SEGMENTS` = 2\^(\d+)", "algebra.MAX_SEGMENTS", lambda value: 2 ** int(value)),
    (r"`MAX_SYMBOL_SEGMENTS` = 2\^(\d+)", "algebra.MAX_SYMBOL_SEGMENTS", lambda value: 2 ** int(value)),
    (r"`MAX_SETUP_STEPS` = 2\^(\d+)", "algebra.MAX_SETUP_STEPS", lambda value: 2 ** int(value)),
    (r"(\d+) demands \(`harness\.SWEEP_LIMIT`", "harness.SWEEP_LIMIT", int),
    (r"(\d+) MiB \(`harness\.MAX_PAYLOAD_BYTES`\)", "harness.MAX_PAYLOAD_BYTES", lambda value: int(value) * 2**20),
    (r"(\d+) \(`analysis\.MAX_TRADEOFF_USERS`\)", "analysis.MAX_TRADEOFF_USERS", int),
    (r"(\d+) either way \(`core\.MAX_DECIMAL_EXPONENT`\)", "core.MAX_DECIMAL_EXPONENT", int),
)


def test_readme_ceilings_match_the_code():
    # a ceiling changed in the code must not stay quoted with its old value
    text = " ".join(README.read_text(encoding="utf-8").split())  # sentences may wrap anywhere
    stale = []
    for pattern, name, read in README_CEILINGS:
        module, attribute = name.split(".")
        want = getattr(importlib.import_module(f"fdcache.{module}"), attribute)
        quoted = [read(value) for value in re.findall(pattern, text)]
        if not quoted or any(value != want for value in quoted):
            stale.append((name, want, quoted))
    assert stale == []


def test_scheme_reexports_only_what_the_tracer_patches():
    # scheme keeps an import it no longer reads only for the benchmark's
    # tracer to rebind; once the tracer stops patching it, the import must go
    tracing = PACKAGE.parents[1] / "perfbench" / "tracing.py"
    patched = {
        node.elts[1].value
        for node in ast.walk(ast.parse(tracing.read_text(encoding="utf-8")))
        if isinstance(node, ast.Tuple) and len(node.elts) == 3
        and isinstance(node.elts[0], ast.Name) and node.elts[0].id == "scheme"
        and isinstance(node.elts[1], ast.Constant)
    }
    source = (PACKAGE / "scheme.py").read_text(encoding="utf-8")
    reexported = set(re.findall(r"^\s*(\w+),\s*# noqa: F401", source, flags=re.MULTILINE))
    assert patched and reexported
    assert reexported <= patched, sorted(reexported - patched)


def test_every_mutant_anchor_occurs_once():
    # scripts/mutants.py replaces each anchor in a copy of the source: an
    # anchor that a change moved or duplicated fails here, not silently there
    path = PACKAGE.parents[1] / "scripts" / "mutants.py"
    spec = importlib.util.spec_from_file_location("mutants", path)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.ANCHOR_TEST == f"tests/test_source.py::{test_every_mutant_anchor_occurs_once.__name__}"
    labels = [mutant.label for mutant in mutants.CATALOGUE]
    assert len(set(labels)) == len(labels)
    for mutant in mutants.CATALOGUE:
        text = (PACKAGE.parents[1] / mutant.path).read_text(encoding="utf-8")
        assert text.count(mutant.anchor) == 1, mutant.label
        assert mutant.replacement != mutant.anchor, mutant.label
        assert mutant.expect == "killed" or mutant.expect.startswith("equivalent: "), mutant.label
