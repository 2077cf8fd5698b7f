"""Spans recorded from outside govtree, around calls into its public API.

A ``Tracer`` wraps each call the benchmark makes into a govtree layer.
Disabled, it only calls through. Enabled, it records one span per call
(name, start, end, parent, operation id) and the span's self time: its
duration minus the time its child spans cover. Spans stay in memory and
are written out when the run ends.

Where govtree takes a callable or object from its caller (the base
handler given to ``govern``, the ``GovernancePolicy``, the
``ResponseSampler`` given to the checkers), the wrappers below pass in a
timing wrapper instead, so those layers get spans without any change
under ``src/``.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

from govtree.governance import GovernancePolicy


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.op_id = -1
        # (span id, name, start, end, self seconds, parent id, operation id)
        self.spans: list = []
        self._stack: list = []  # open spans: [span id, seconds covered by children]
        self._next_id = 0
        self.counts: Counter = Counter()

    def count(self, name: str, n: int) -> None:
        """Adds to a named count; a no-op unless tracing."""
        if self.enabled:
            self.counts[name] += n

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            self.spans.append((
                frame[0], name, start, end, duration - frame[1],
                parent[0] if parent is not None else -1, self.op_id,
            ))

    def totals(self, workload_only: bool = False) -> "tuple[Counter, dict]":
        """Calls and self seconds per span name. Layer probes run with a
        negative operation id; ``workload_only`` leaves them out."""
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        for _, name, _, _, self_seconds, _, op_id in self.spans:
            if workload_only and op_id < 0:
                continue
            calls[name] += 1
            self_s[name] += self_seconds
        return calls, self_s

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tname\tstart_s\tend_s\tself_s\tparent\top\n")
            for sid, name, start, end, self_seconds, parent, op_id in self.spans:
                f.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{self_seconds:.9f}\t{parent}\t{op_id}\n")


def traced_handler(handler, tracer: Tracer, seen: list):
    """The base handler, timed; records each directive it answers."""
    if not tracer.enabled:
        return handler

    def timed(d):
        seen.append(d)
        return tracer.call("directives.handler", handler, d)

    return timed


def traced_policy(policy: GovernancePolicy, tracer: Tracer) -> GovernancePolicy:
    if not tracer.enabled:
        return policy
    decide = policy.decide
    return GovernancePolicy(
        policy.name, lambda stage, d: tracer.call("governance.policy", decide, stage, d)
    )


class CountingSampler:
    """A ``ResponseSampler`` stand-in that counts (and, traced, times)
    every ``answers`` call: one call per I/O node a checker expands."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.calls = 0

    def answers(self, event) -> tuple:
        self.calls += 1
        return self.tracer.call("directives.sampler", self.inner.answers, event)
