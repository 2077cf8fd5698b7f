#!/usr/bin/env python3
"""Generate a batch of random program files for CLI experimentation."""

import argparse
from pathlib import Path

from govtree.cli import non_negative_int
from govtree.directives import derive_rng
from govtree.gen import gen_input, gen_program_ast
from govtree.program import Program, serialize_program


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=non_negative_int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="generated_programs")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        rng = derive_rng("make-programs", args.seed, i)
        program = Program(gen_input(rng), gen_program_ast(rng, allow_register=True))
        path = out / f"program_{args.seed}_{i:03d}.json"
        path.write_text(serialize_program(program), encoding="utf-8")
        print(path)


if __name__ == "__main__":
    main()
