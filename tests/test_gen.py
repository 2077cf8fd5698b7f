"""The generator's draws, pinned.

Every campaign, differential trial and benchmark input is drawn by
``govtree.gen`` from a seeded ``random.Random``, so a change in what one
call draws, or in the order it draws it, moves them all. The digest below
covers ``gen_directive`` for each tag and for a random tag, generated
traces, and the text of ``gen_program_ast`` programs under every
``must_include``, ``force_effectful`` and ``allow_register``.
"""

import hashlib
import random

from govtree.directives import DIRECTIVE_TYPES, encode_directive
from govtree.gen import gen_directive, gen_input, gen_program_ast, gen_trace
from govtree.program import Program, serialize_program
from govtree.trace import format_trace

DRAW_PIN = "b45401c8b8984e1d4867a5dd64f21aa4c0722366c52fd4bdd5e61871e2a1f1f9"


def _draws() -> str:
    rng = random.Random(22)
    parts = []
    for tag in (*(t.__name__ for t in DIRECTIVE_TYPES), None):
        parts += (encode_directive(gen_directive(rng, tag)) for _ in range(200))
    parts.append(format_trace(gen_trace(rng, 300)))
    for must_include in (None, "code", "reason", "memory", "call"):
        for force_effectful in (False, True):
            for allow_register in (False, True):
                for _ in range(20):
                    ast = gen_program_ast(
                        rng,
                        allow_register=allow_register,
                        force_effectful=force_effectful,
                        must_include=must_include,
                    )
                    parts.append(serialize_program(Program(gen_input(rng), ast)))
    return "\n".join(parts)


def test_generator_draws_are_pinned():
    assert hashlib.sha256(_draws().encode()).hexdigest() == DRAW_PIN
