"""The fixed directive signature: every effect the runtime can request.

There are exactly 14 directive variants. Each one is a frozen dataclass
whose fields are printable scalars (strings and ints), each declares the
type of answer the environment produces for it, and each maps to at most
one capability. ``RecordStep`` and ``Observability`` are bookkeeping and
require no capability at all.

This module also owns the canonical textual encoding used by traces,
ledger entries, and mock and sampled answers: ``TAG{field=value,...}``
with fields in declaration order and no added whitespace. Delimiter
characters and backslashes inside string values are backslash-escaped so
the encoding stays injective. The layout of each variant (its template
and field names) is read once, from ``DIRECTIVE_TYPES``, at import.

Mock answers and checker samples are read off a SHA-256 digest of the
seed and the directive's encoding, with no generator seeded. Unit-answered
directives (``RecordStep``, ``Broadcast``, ``EmitEvent``, ``Observability``)
have the one answer ``None`` and hash nothing. A ``ResponseSampler`` derives
each directive's samples once and keeps them in a bounded table keyed by
the directive's encoding.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Callable, Union

from .itree import ITree, ret


@dataclass(frozen=True, slots=True)
class LLMCall:
    model: str
    prompt: str


@dataclass(frozen=True, slots=True)
class HTTPRequest:
    method: str
    url: str
    body: str


@dataclass(frozen=True, slots=True)
class FileOp:
    op: str
    path: str


@dataclass(frozen=True, slots=True)
class CallMachine:
    machine: str
    payload: str


@dataclass(frozen=True, slots=True)
class MemoryOp:
    op: str
    key: str
    value: str


@dataclass(frozen=True, slots=True)
class DBOp:
    query: str


@dataclass(frozen=True, slots=True)
class ExecOp:
    command: str


@dataclass(frozen=True, slots=True)
class RecordStep:
    step: str


@dataclass(frozen=True, slots=True)
class Broadcast:
    channel: str
    message: str


@dataclass(frozen=True, slots=True)
class EmitEvent:
    name: str
    payload: str


@dataclass(frozen=True, slots=True)
class GraphQLRequest:
    endpoint: str
    query: str


@dataclass(frozen=True, slots=True)
class WebSocketOp:
    op: str
    url: str
    message: str


@dataclass(frozen=True, slots=True)
class MCPCall:
    server: str
    method: str


@dataclass(frozen=True, slots=True)
class Observability:
    message: str


DirectiveEvent = Union[
    LLMCall, HTTPRequest, FileOp, CallMachine, MemoryOp, DBOp, ExecOp,
    RecordStep, Broadcast, EmitEvent, GraphQLRequest, WebSocketOp, MCPCall,
    Observability,
]

DIRECTIVE_TYPES = (
    LLMCall, HTTPRequest, FileOp, CallMachine, MemoryOp, DBOp, ExecOp,
    RecordStep, Broadcast, EmitEvent, GraphQLRequest, WebSocketOp, MCPCall,
    Observability,
)


# Answer records. Unit-valued directives answer with None.

@dataclass(frozen=True, slots=True)
class LLMResponse:
    status: int
    content: str


@dataclass(frozen=True, slots=True)
class HTTPResponse:
    status: int
    content: str


@dataclass(frozen=True, slots=True)
class FileResult:
    status: int
    content: str


@dataclass(frozen=True, slots=True)
class CallMachineResult:
    status: int
    content: str


@dataclass(frozen=True, slots=True)
class MemoryResult:
    status: int
    content: str


@dataclass(frozen=True, slots=True)
class DBResult:
    status: int
    content: str


@dataclass(frozen=True, slots=True)
class ExecResult:
    status: int
    content: str


@dataclass(frozen=True, slots=True)
class WebSocketResult:
    status: int
    content: str


ANSWER_TYPES: dict[type, type | None] = {
    LLMCall: LLMResponse,
    HTTPRequest: HTTPResponse,
    FileOp: FileResult,
    CallMachine: CallMachineResult,
    MemoryOp: MemoryResult,
    DBOp: DBResult,
    ExecOp: ExecResult,
    RecordStep: None,
    Broadcast: None,
    EmitEvent: None,
    GraphQLRequest: HTTPResponse,
    WebSocketOp: WebSocketResult,
    MCPCall: CallMachineResult,
    Observability: None,
}


class Capability(Enum):
    """The finite capability universe gating effectful directives."""

    LLM_REASON = "llm_reason"
    MEMORY = "memory"
    MACHINE_CALL = "machine_call"
    HTTP = "http"
    FILE = "file"
    DB = "db"
    EXEC = "exec"
    BROADCAST = "broadcast"
    WEBSOCKET = "websocket"


_CAPABILITY_FOR: dict[type, Capability | None] = {
    LLMCall: Capability.LLM_REASON,
    MemoryOp: Capability.MEMORY,
    CallMachine: Capability.MACHINE_CALL,
    MCPCall: Capability.MACHINE_CALL,
    HTTPRequest: Capability.HTTP,
    GraphQLRequest: Capability.HTTP,
    FileOp: Capability.FILE,
    DBOp: Capability.DB,
    ExecOp: Capability.EXEC,
    Broadcast: Capability.BROADCAST,
    EmitEvent: Capability.BROADCAST,
    WebSocketOp: Capability.WEBSOCKET,
    RecordStep: None,
    Observability: None,
}


def directive_tag(d: DirectiveEvent) -> str:
    """The variant name of a directive; injective over the 14 variants."""
    return type(d).__name__


def is_observability(d: DirectiveEvent) -> bool:
    return type(d) is Observability


def capability_for_directive(d: DirectiveEvent) -> Capability | None:
    """The capability a directive requires, or None for bookkeeping ones."""
    return _CAPABILITY_FOR[type(d)]


# Per directive type: a ``TAG{name=%s,...}`` template with the fields in
# declaration order, and the field names.
_LAYOUTS: dict[type, tuple[str, tuple[str, ...]]] = {
    t: (
        t.__name__ + "{" + ",".join(f"{f.name}=%s" for f in fields(t)) + "}",
        tuple(f.name for f in fields(t)),
    )
    for t in DIRECTIVE_TYPES
}


# The last directive encoded and its encoding, as one tuple so that
# concurrent callers never pair one directive with another's encoding. A
# governed step encodes its directive for the trace and then again for the
# mock answer; directives are frozen, so one object has one encoding.
_last_encoded: tuple = (object(), "")


def encode_directive(d: DirectiveEvent) -> str:
    """Canonical text form ``TAG{field=value,...}``; injective.

    Each string value is escaped character by character: a backslash goes
    in front of ``\\``, ``{``, ``}``, ``,`` and ``=``, and a newline
    becomes ``\\n``. Other values are written with ``format``. Encoding
    the directive object just encoded again returns the same string.
    """
    global _last_encoded
    last = _last_encoded
    if last[0] is d:
        return last[1]
    enc = _encode(d)
    _last_encoded = (d, enc)
    return enc


def _encode(d: DirectiveEvent) -> str:
    template, names = _LAYOUTS[type(d)]
    values = []
    for name in names:
        v = getattr(d, name)
        if isinstance(v, str):
            # Backslashes first, so that the ones added after stay single.
            v = (v.replace("\\", "\\\\").replace("{", "\\{").replace("}", "\\}")
                 .replace(",", "\\,").replace("=", "\\=").replace("\n", "\\n"))
        else:
            v = f"{v}"
        values.append(v)
    return template % tuple(values)


def _digest(*parts) -> bytes:
    return hashlib.sha256("\x1f".join(map(str, parts)).encode("utf-8")).digest()


def derive_rng(*parts) -> random.Random:
    """A deterministic RNG keyed by the given parts, stable across runs."""
    return random.Random(int.from_bytes(_digest(*parts)[:8], "big"))


def _answer(answer_type: type, *parts):
    """Status and content number from bytes 0-8 and 8-16 of the digest."""
    digest = _digest(*parts)
    status = 100 + int.from_bytes(digest[:8], "big") % 500
    n = int.from_bytes(digest[8:16], "big") % 1_000_000
    return answer_type(status, f"{answer_type.__name__.lower()}-{n}")


def mock_answer(seed: int, d: DirectiveEvent):
    """The answer a seeded mock environment gives ``d``: ``None``, with no
    encoding or hashing, if ``d`` is unit-answered, else one read off the
    digest of the seed and the canonical encoding of ``d``."""
    answer_type = ANSWER_TYPES[type(d)]
    if answer_type is None:
        return None
    return _answer(answer_type, "mock", seed, encode_directive(d))


Handler = Callable[[DirectiveEvent], ITree]


def mock_handler(seed: int) -> Handler:
    """A pure base handler: answers every directive with ``mock_answer``.

    The returned trees contain no events; same seed and directive always
    produce the same answer.
    """
    return lambda d: ret(mock_answer(seed, d))


# Entries a sampler's answer table holds before it is cleared: one sampler
# may serve a whole campaign, so the table must stay bounded.
SAMPLER_TABLE_SIZE = 4096


@dataclass(frozen=True)
class ResponseSampler:
    """Finite, deterministic answer sampling for directive events.

    Unit-answered directives have one answer, record-answered ones
    ``samples_per_event``: sample ``i`` is read off the digest of ``(seed,
    i, encoding)``. Used by checkers that quantify over answers.

    The checkers ask for the answers of the same directive many times, so
    each sampler keeps a table from a directive's canonical encoding to
    its answers, cleared whenever it reaches ``SAMPLER_TABLE_SIZE``
    entries. The key is the encoding, not the directive, because
    directive equality takes ``1 == True`` while the encoding, and so the
    answer stream, tells them apart. The table takes no part in equality,
    hashing or ``repr``.
    """

    seed: int = 0
    samples_per_event: int = 2
    _table: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def answers(self, event: DirectiveEvent) -> tuple:
        answer_type = ANSWER_TYPES[type(event)]
        if answer_type is None:
            return (None,)
        enc = encode_directive(event)
        table = self._table
        found = table.get(enc)
        if found is None:
            if len(table) >= SAMPLER_TABLE_SIZE:
                table.clear()
            found = table[enc] = tuple(
                _answer(answer_type, "sample", self.seed, i, enc)
                for i in range(self.samples_per_event)
            )
        return found
