"""The benchmark's workloads: which system each one runs, its seeded demand
stream, and the one operation it times.

Why each workload exists is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

import gate

LEMMA_SAMPLES = 10  # the default --samples of `fdcache lemmas`


@dataclass(frozen=True)
class Spec:
    params: tuple[int, int, int]  # (N, K, r)
    kind: str  # "verify": verify_demand per demand; "identity": identity_suite per demand
    engine: str = "both"
    payload_width: int = 1
    run_oracle: bool = True
    reference: str = "python"  # calibrate.REFERENCES: what slows down the way this workload does


SPECS = {
    "verify-4x6r2": Spec((4, 6, 2), "verify"),
    "verify-3x8r1": Spec((3, 8, 1), "verify"),
    "payload-3x6r1-64k": Spec((3, 6, 1), "verify", engine="payload", payload_width=65536, run_oracle=False,
                              reference="memory"),
    "lemmas-4x10r1": Spec((4, 10, 1), "identity"),
}


def demand_stream(n_files: int, n_users: int, seed: int) -> Iterator[tuple[int, ...]]:
    """Fully demanded vectors, uniform over that class, by rejection sampling."""
    rng = random.Random(seed)
    while True:
        demand = tuple(rng.randint(1, n_files) for _ in range(n_users))
        if len(set(demand)) == n_files:
            yield demand


class Workload:
    """One workload bound to a seed.

    Building it imports fdcache and, for the identity workload, runs the
    ``sample_fully_demanded`` enumeration that ``fdcache lemmas`` runs, so
    both count towards set-up time.
    """

    def __init__(self, name: str, seed: int, reference):
        from fdcache import harness
        from fdcache.core import SchemeParams, is_fully_demanded

        self.spec = spec = SPECS[name]
        self.seed = seed
        self.reference = reference  # the calibrate.Reference its timed loop samples
        self.params = SchemeParams(*spec.params)
        self.demands = demand_stream(spec.params[0], spec.params[1], seed)
        self.top_span = "harness.verify_demand" if spec.kind == "verify" else "harness.identity_suite"
        self._harness = harness
        if spec.kind == "identity":
            sample = harness.sample_fully_demanded(self.params, LEMMA_SAMPLES)
            if len(sample) != LEMMA_SAMPLES or not all(is_fully_demanded(self.params, d) for d in sample):
                raise RuntimeError(f"sample_fully_demanded returned a bad sample: {sample[:3]}...")

    def run(self, demand):
        """The timed operation: one demand through the program."""
        spec, harness = self.spec, self._harness
        if spec.kind == "verify":
            return harness.verify_demand(
                self.params,
                demand,
                engine=spec.engine,
                seed=str(self.seed),
                payload_width=spec.payload_width,
                run_oracle=spec.run_oracle,
            )
        return harness.identity_suite(self.params, demands=[demand])

    def failure(self, report) -> str | None:
        if self.spec.kind == "verify":
            return gate.verify_failure(report, self.spec.run_oracle)
        return gate.identity_failure(report)

    def record(self, report) -> dict:
        """Canonical JSON of one report, with timing off."""
        if self.spec.kind == "verify":
            return self._harness.report_json_dict(report, timing=False)
        return self._harness.identity_json_dict(report)
