"""The benchmark's tracer wraps fdcache functions by name: it must still find
every one of them, and put the originals back."""

import ast
import importlib.util
import re
from collections import Counter
from pathlib import Path

from fdcache import algebra, harness, scheme
from fdcache.core import SchemeParams

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    return {
        (owner.__name__, name): value
        for owner in (harness, scheme, algebra.Payload)
        for name, value in vars(owner).items()
    }


def test_tracer_installs_and_uninstalls():
    before = _bindings()
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert harness.delivery is not before[("fdcache.harness", "delivery")]
        tracer.begin_demand()
        report = harness.identity_suite(SchemeParams(3, 6, 1), demands=[(1, 1, 1, 1, 2, 3)])
        tracer.end_demand(report)
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert report.success
    assert metrics["harness.identity_checks"] == sum(f.checked for f in report.families.values())
    assert metrics["scheme.skip_combination_calls"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_tracer_round_trip_on_the_verify_path():
    # one traced demand through both engines and the oracle: every wrapper
    # still finds its target, and every binding comes back
    before = _bindings()
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        tracer.begin_demand()
        report = harness.verify_demand(SchemeParams(3, 6, 1), (1, 1, 1, 1, 2, 3), engine="both", run_oracle=True)
        tracer.end_demand(report)
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert report.success and report.oracle_ok
    assert metrics["scheme.delivery_ms"] > 0
    assert metrics["scheme.sent_symbols"] == report.t_count
    assert metrics["scheme.skip_combination_calls"] == 10  # the demand's ten skipped pairs
    assert metrics["algebra.oracle_ms"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_tracer_calls_every_wrapped_view():
    # each view the tracer wraps, called once through its traced binding
    # with the signature the tracer forwards, records its span and returns
    # what the view itself returns
    params, demand = SchemeParams(3, 6, 1), (1, 1, 1, 1, 2, 3)
    dset, cache = scheme.delivery(params, demand), scheme.prefetch(params, 1)
    index = algebra.segment_index(params)
    before = _bindings()
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        tracer.begin_demand()
        payload = algebra.Payload.random(index.segments, width=2, seed="smoke")
        ints = payload.int_values()
        masks = harness.decode_file(dset, cache, 1)
        values = harness.decode_file(dset, cache, 1, harness.PayloadSource(cache, dset, payload))
        closure = harness.row_parity_closure(cache, 2, (), "Q")
        rebuilt = harness.reconstruct_skipped(dset, 1, (3, 4), "I")
        identity = harness.transformed_sum_identity(params, demand, 1, (2,), "I")
    finally:
        tracer.uninstall()
    assert Counter(span[0] for span in tracer.spans) == {
        "algebra.payload_gen": 3,  # Payload.random, int_values, and int_values inside PayloadSource
        "scheme.decode_symbolic": 1,
        "scheme.payload_encode": 1,
        "scheme.decode_payload": 1,
        "scheme.closure": 1,
        "scheme.reconstruct": 1,
        "scheme.transformed_sum": 1,
        # the ten skipped pairs of the demand per decode_file, and one rebuild
        "scheme.skip_combination": 21,
    }
    assert all(mask == 1 << index[seg] for seg, mask in masks)
    assert all(value == ints[seg] for seg, value in values)
    assert closure == cache.row[(2, ())][1]
    assert rebuilt == dset.skipped[(1, (3, 4))][0]
    assert identity
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_harness_reexports_only_what_the_tracer_patches():
    # a `# noqa: F401` re-export in harness exists only for the tracer to
    # rebind; once the tracer stops patching a name, its re-export must go
    patched = {
        node.elts[1].value
        for node in ast.walk(ast.parse(TRACING.read_text(encoding="utf-8")))
        if isinstance(node, ast.Tuple) and len(node.elts) == 3
        and isinstance(node.elts[0], ast.Name) and node.elts[0].id == "harness"
        and isinstance(node.elts[1], ast.Constant)
    }
    source = (ROOT / "src" / "fdcache" / "harness.py").read_text(encoding="utf-8")
    reexported = set(re.findall(r"^\s*(\w+),\s*# noqa: F401", source, flags=re.MULTILINE))
    assert patched and reexported
    assert reexported <= patched, sorted(reexported - patched)
