"""Run one primeshift CLI job with its layers wrapped in spans.

Usage: BENCH_SPAWN_T=<t> python bench/trace_child.py OUT JOB_ID -- <primeshift args>

BENCH_SPAWN_T is the parent's ``time.monotonic()`` reading taken just
before it started this process; CLOCK_MONOTONIC is system-wide on Linux, so
``import_s`` covers interpreter start-up plus ``import primeshift.cli``.
Each layer's public functions are wrapped wherever their names are bound
(``primeshift.cli.greedy_prune`` and ``primeshift.bounds.greedy_prune``
alike); then ``primeshift.cli.main`` runs under a root span.  Spans,
aggregates and counters are kept in memory and written to OUT as JSON
when the job ends.

A span's self time is its duration minus the durations of the wrapped
calls directly beneath it, so the self times of all spans and aggregates
add up to the root span's duration.  Hot per-value functions get one
aggregate (calls, inclusive and self time) instead of a span per call.
"""

from __future__ import annotations

import bisect
import functools
import json
import os
import sys
import time

SPANS = (
    ("cli", "parse_input_set"),
    ("cli", "dispatch"),
    ("admissible", "check_admissible"),
    ("prune", "greedy_prune"),
    ("bounds", "guarantee"),
    ("bounds", "verify_mertens"),
    ("bounds", "verify_proof_constants"),
    ("representation", "rep_search"),
    ("representation", "romanoff_counts"),
    ("primes", "sieve"),
)
HOT = (
    ("primes", "nth_prime"),
    ("primes", "prime_flags"),
    ("primes", "is_prime"),
)
ROOT = "cli.main"
FROM_VALUES = "admissible.from_values"
COUNTERS = (
    "admissible.values",
    "admissible.primes_examined",
    "prune.steps",
    "prune.elements_scanned",
    "bounds.mertens_checkpoints",
    "primes.sieve.numbers",
    "primes.prime_flags.bytes",
    "representation.cells",
)
SPAN_NAMES = (ROOT, FROM_VALUES) + tuple(f"{m}.{f}" for m, f in SPANS)
HOT_NAMES = tuple(f"{m}.{f}" for m, f in HOT)


class Tracer:
    def __init__(self, job: str):
        self.job = job
        self.stack: list[list] = []  # frames: [child time, span id or None]
        self.spans: list[dict] = []
        self.hot: dict[str, dict] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)

    def current_span(self) -> dict | None:
        for frame in reversed(self.stack):
            if frame[1] is not None:
                return self.spans[frame[1]]
        return None

    def wrap(self, name: str, fn, hot: bool = False, hook=None):
        """Wrap fn; re-entrant calls (prime_flags recursing) pass straight through."""
        stack = self.stack
        active = [False]
        stats = self.hot.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0}) if hot else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            span = None
            if not hot:
                parent = self.current_span()
                span = {
                    "job": self.job,
                    "id": len(self.spans),
                    "name": name,
                    "parent": None if parent is None else parent["id"],
                }
                self.spans.append(span)
            frame = [0.0, None if span is None else span["id"]]
            stack.append(frame)
            active[0] = True
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                active[0] = False
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                if hot:
                    stats["calls"] += 1
                    stats["s"] += duration
                    stats["self_s"] += duration - frame[0]
                else:
                    span.update(start=start, end=end, self_s=duration - frame[0])
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def payload(self, import_s: float) -> dict:
        return {
            "job": self.job,
            "import_s": import_s,
            "spans": self.spans,
            "hot": self.hot,
            "counters": self.counters,
        }


def install(tracer: Tracer) -> None:
    """Wrap every SPANS/HOT function wherever a primeshift module binds it."""
    import primeshift.admissible as admissible
    import primeshift.bounds as bounds
    import primeshift.primes as primes

    sieve = primes.sieve
    c = tracer.counters

    def values(t, args, int_set):
        c["admissible.values"] += int_set.size

    def examined(t, args, cert):
        c["admissible.primes_examined"] += (
            len(cert.missed_residues) if cert.covered_prime is None
            else sieve(cert.covered_prime).count
        )

    def pruned(t, args, trace):
        c["prune.steps"] += trace.s
        c["prune.elements_scanned"] += trace.input_size + sum(
            st.survivors_actual for st in trace.steps[:-1]
        )

    def sieved(t, args, table):
        c["primes.sieve.numbers"] += table.limit
        parent = t.current_span()
        if parent is not None and parent["name"] == "bounds.verify_mertens":
            # x = 74 plus every prime checkpoint q >= 74.
            c["bounds.mertens_checkpoints"] += (
                len(table.primes) - bisect.bisect_left(table.primes, bounds.MERTENS_MIN_X) + 1
            )

    def flagged(t, args, flags):
        c["primes.prime_flags.bytes"] += len(flags)

    def searched(t, args, profile):
        c["representation.cells"] += profile.int_set.size * (profile.n_hi - profile.n_lo + 1)

    hooks = {
        "admissible.check_admissible": examined,
        "prune.greedy_prune": pruned,
        "primes.sieve": sieved,
        "primes.prime_flags": flagged,
        "representation.rep_search": searched,
    }
    modules = [m for n, m in sys.modules.items() if n == "primeshift" or n.startswith("primeshift.")]
    for layer, attr in SPANS + HOT:
        name = f"{layer}.{attr}"
        original = getattr(sys.modules[f"primeshift.{layer}"], attr)
        wrapped = tracer.wrap(name, original, hot=name in HOT_NAMES, hook=hooks.get(name))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    from_values = admissible.IntegerSet.__dict__["from_values"].__func__
    admissible.IntegerSet.from_values = classmethod(
        tracer.wrap(FROM_VALUES, from_values, hook=values)
    )


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[3] != "--" or "BENCH_SPAWN_T" not in os.environ:
        raise SystemExit("usage: BENCH_SPAWN_T=<t> trace_child.py OUT JOB_ID -- <primeshift args>")
    out_path, job = sys.argv[1], sys.argv[2]
    spawn_t = float(os.environ["BENCH_SPAWN_T"])
    import primeshift.cli as cli

    import_s = time.monotonic() - spawn_t
    tracer = Tracer(job)
    install(tracer)
    try:
        return tracer.wrap(ROOT, cli.main)(sys.argv[4:])
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.payload(import_s), fh)


if __name__ == "__main__":
    sys.exit(main())
