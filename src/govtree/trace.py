"""Linear execution traces and the well-governed trace predicate.

A trace is the ordered record of what a governed run did: one entry per
governance check (stage plus the boolean decision) and one entry per
performed I/O event (the canonical directive encoding). Pure steps and
silent steps leave no record. Entries are ``NamedTuple`` records, each
equal only to entries of its own type (see ``itree.own_type_eq``).

A trace is *well governed* when every I/O entry is preceded by a passing
check for its own tag. The approval resets after each I/O entry, making
the predicate the linear shadow of the tree-level safety check, which
re-requires approval after every effect.

Trace file format: one entry per line, UTF-8, LF endings.
``GOV <stage> <pass|fail>`` or ``IO <canonical-directive>``. As with a
ledger, a trace has one text: it is empty or ends in LF, and no line is
empty, so ``parse_trace`` reads only what ``format_trace`` writes.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Union

from .itree import own_type_eq


@own_type_eq
class GovEntry(NamedTuple):
    stage: str
    passed: bool


@own_type_eq
class IoEntry(NamedTuple):
    directive: str  # canonical TAG{...} encoding


TraceEvent = Union[GovEntry, IoEntry]
Trace = tuple


def well_governed(trace: Iterable[TraceEvent]) -> bool:
    """True when the last passing check before each I/O entry, with no other
    I/O entry between them, has the entry's tag (its encoding up to the first
    ``{``) as its stage. A failing check leaves the approval as it was."""
    approved = None  # the stage of the last passing check since the last I/O entry
    for ev in trace:
        if type(ev) is GovEntry:
            if ev.passed:
                approved = ev.stage
        else:
            if approved != ev.directive.partition("{")[0]:
                return False
            approved = None
    return True


def format_trace(trace: Iterable[TraceEvent]) -> str:
    lines = []
    for ev in trace:
        if type(ev) is GovEntry:
            lines.append(f"GOV {ev.stage} {'pass' if ev.passed else 'fail'}")
        else:
            lines.append(f"IO {ev.directive}")
    return "".join(line + "\n" for line in lines)


def parse_trace(text: str) -> Trace:
    lines = text.split("\n")
    events: list[TraceEvent] = []
    for line_no, line in enumerate(lines[:-1], 1):
        if line.startswith("GOV "):
            stage, _, verdict = line[4:].rpartition(" ")
            if verdict not in ("pass", "fail") or not stage:
                raise ValueError(f"line {line_no}: malformed GOV entry")
            events.append(GovEntry(stage, verdict == "pass"))
        elif line.startswith("IO "):
            events.append(IoEntry(line[3:]))
        else:
            raise ValueError(f"line {line_no}: {'unknown trace entry' if line else 'empty line'}")
    if lines[-1]:
        raise ValueError(f"line {len(lines)}: no LF at the end of the file")
    return tuple(events)
