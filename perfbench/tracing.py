"""In-memory spans and counters around fdcache's public functions.

The program's source is not touched. ``Tracer.install`` rebinds the names
that callers look up at module boundaries (``harness.delivery``,
``scheme.skip_combination``, ``Payload.random``, ...) to timing wrappers, and
``uninstall`` puts the originals back, so an untraced phase runs the
program exactly as shipped.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

SETUP = 0  # demand id of spans recorded during set-up; demands count from 1


class Tracer:
    def __init__(self):
        # one list per span: [name, demand, parent, start, end]; the index is its id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.demand = SETUP
        self._open: list[int] = []
        self._skip_pairs: set = set()
        self._saved: list = []

    # -- spans --------------------------------------------------------------

    def start(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.demand, parent, time.perf_counter(), None])
        self._open.append(sid)
        return sid

    def stop(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._open.pop()

    def begin_demand(self) -> None:
        self.demand += 1
        self._skip_pairs = set()

    def end_demand(self, report) -> None:
        """Fold the finished demand's distinct skips and report fields into the counts."""
        self.counts["skip_distinct"] += len(self._skip_pairs)
        self.counts["oracle_s"] += getattr(report, "oracle_seconds", 0.0)
        families = getattr(report, "families", {})
        self.counts["identity_checks"] += sum(family.checked for family in families.values())

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for _name, _demand, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[sid] for sid, (_n, _d, _p, start, end) in enumerate(self.spans)]

    # -- wrappers -----------------------------------------------------------

    def timed(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            sid = self.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stop(sid)
            if after is not None:
                after(result)
            return result

        return traced

    def _decode(self, decode_file):
        def traced(dset, cache, k, source=None):
            sid = self.start("scheme.decode_symbolic" if source is None else "scheme.decode_payload")
            try:
                return decode_file(dset, cache, k, source)
            finally:
                self.stop(sid)

        return traced

    def _skip(self, skip_combination):
        def traced(dset, s, r_plus):
            self._skip_pairs.add((s, r_plus))
            sid = self.start("scheme.skip_combination")
            try:
                return skip_combination(dset, s, r_plus)
            finally:
                self.stop(sid)

        return traced

    def _counted(self, fn, key: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_delivery(self, dset) -> None:
        self.counts["sent_symbols"] += dset.transmitted_count
        self.counts["skipped_symbols"] += 2 * len(dset.skipped)  # I and Q of each skipped pair

    def _count_payload(self, payload) -> None:
        self.counts["payload_bytes"] += len(payload.data) * payload.width

    def install(self) -> None:
        from fdcache import algebra, harness, scheme

        payload_random = vars(algebra.Payload)["random"].__func__
        patches = [
            (harness, "prefetch", self.timed("scheme.prefetch", harness.prefetch)),
            (harness, "enumerate_demands", self.timed("core.enumerate", harness.enumerate_demands)),
            (harness, "delivery", self.timed("scheme.delivery", harness.delivery, self._count_delivery)),
            (harness, "decode_file", self._decode(harness.decode_file)),
            (harness, "PayloadSource", self.timed("scheme.payload_encode", harness.PayloadSource)),
            (algebra.Payload, "random",
             classmethod(self.timed("algebra.payload_gen", payload_random, self._count_payload))),
            (algebra.Payload, "int_values", self.timed("algebra.payload_gen", algebra.Payload.int_values)),
            (scheme, "skip_combination", self._skip(scheme.skip_combination)),
            (harness, "row_parity_closure", self.timed("scheme.closure", harness.row_parity_closure)),
            (harness, "reconstruct_skipped", self.timed("scheme.reconstruct", harness.reconstruct_skipped)),
            (harness, "transformed_sum_identity",
             self.timed("scheme.transformed_sum", harness.transformed_sum_identity)),
            (scheme, "segment", self._counted(scheme.segment, "segment_calls")),
            (harness, "segment", self._counted(harness.segment, "segment_calls")),
        ]
        for owner, name, replacement in patches:
            self._saved.append((owner, name, vars(owner)[name]))
            setattr(owner, name, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics; per demand over the traced demands, set-up spans as totals."""
        busy: defaultdict[str, float] = defaultdict(float)
        setup: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        top_self = 0.0
        for (name, demand, parent, start, end), own in zip(self.spans, self.self_times()):
            if demand == SETUP:
                setup[name] += end - start
                continue
            busy[name] += end - start
            calls[name] += 1
            if parent is None:
                top_self += own
        n = max(self.demand, 1)
        counts = self.counts
        skip_calls = calls["scheme.skip_combination"]

        def ms(seconds: float) -> float:
            return 1000 * seconds / n

        return {
            "scheme.decode_symbolic_ms": ms(busy["scheme.decode_symbolic"]),
            "scheme.decode_payload_ms": ms(busy["scheme.decode_payload"]),
            "scheme.payload_encode_ms": ms(busy["scheme.payload_encode"]),
            "scheme.payload_encode_calls": calls["scheme.payload_encode"] / n,
            "algebra.payload_gen_ms": ms(busy["algebra.payload_gen"]),
            "algebra.payload_bytes": counts["payload_bytes"] / n,
            "scheme.skip_combination_ms": ms(busy["scheme.skip_combination"]),
            "scheme.skip_combination_calls": skip_calls / n,
            "scheme.skip_useful_ratio": counts["skip_distinct"] / skip_calls if skip_calls else 0.0,
            "scheme.delivery_ms": ms(busy["scheme.delivery"]),
            "scheme.sent_symbols": counts["sent_symbols"] / n,
            "scheme.skipped_symbols": counts["skipped_symbols"] / n,
            "algebra.segment_calls": counts["segment_calls"] / n,
            "algebra.oracle_ms": ms(counts["oracle_s"]),
            # the oracle runs inside verify_demand but has no span of its own
            "harness.self_ms": ms(top_self - counts["oracle_s"]),
            "scheme.closure_ms": ms(busy["scheme.closure"]),
            "scheme.reconstruct_ms": ms(busy["scheme.reconstruct"]),
            "scheme.transformed_sum_ms": ms(busy["scheme.transformed_sum"]),
            "harness.identity_checks": counts["identity_checks"] / n,
            "scheme.prefetch_ms": 1000 * setup["scheme.prefetch"],
            "core.enumerate_ms": 1000 * setup["core.enumerate"],
        }

    def write(self, path, header: dict, last_demand: int) -> None:
        """One JSON line for the header, then one per span of set-up and of
        demands up to ``last_demand``, times in ms from the first span."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for sid, ((name, demand, parent, start, end), own) in enumerate(zip(self.spans, self.self_times())):
                if demand > last_demand:
                    break
                out.write(json.dumps({
                    "id": sid,
                    "name": name,
                    "demand": demand,
                    "parent": parent,
                    "start_ms": 1000 * (start - origin),
                    "end_ms": 1000 * (end - origin),
                    "self_ms": 1000 * own,
                }) + "\n")
