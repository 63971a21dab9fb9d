"""``python -m repro.autotune`` — tune one operator shape's mapping.

Examples::

    # the bench FC shape
    python -m repro.autotune fc --m 512 --k 1024 --n 256

    # the bench TBE shape, JSON report
    python -m repro.autotune tbe --tables 8 --rows 100000 --dim 64 \\
        --pooling 16 --batch 32 --json

    # validate the model's top 2, 4 simulation workers
    python -m repro.autotune fc --m 512 --k 1024 --n 256 \\
        --topk 2 --jobs 4

Output (text or ``--json``) is byte-identical for the same arguments at
any ``--jobs`` count; every report embeds a ``replay`` command.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.autotune.space import FCShape, MappingSpace, TBEShape
from repro.autotune.tuner import autotune, render_text
from repro.kernels.tbe import TBE_DIMS
from repro.obs.cli import COUNT, add_jobs, emit


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.autotune",
        description="Tune the mapping of one operator shape; "
        "phase 1 ranks every legal mapping with the analytical cost "
        "model, phase 2 validates the top few on the cycle-level "
        "simulator.")
    sub = parser.add_subparsers(dest="family", required=True)

    fc = sub.add_parser("fc", help="tune a fully-connected layer")
    fc.add_argument("--m", type=COUNT, default=512)
    fc.add_argument("--k", type=COUNT, default=1024)
    fc.add_argument("--n", type=COUNT, default=256)
    fc.add_argument("--dtype", default="int8", choices=("int8", "fp16"))

    tbe = sub.add_parser("tbe", help="tune a table-batched embedding")
    for flag, dim, default in zip(
            ("--tables", "--rows", "--dim", "--pooling", "--batch"),
            TBE_DIMS, (8, 100_000, 64, 16, 32)):
        tbe.add_argument(flag, dest=dim, type=COUNT, default=default)

    for p in (fc, tbe):
        p.add_argument("--topk", type=COUNT, default=4,
                       help="top-ranked mappings to DES-validate "
                       "(default %(default)s)")
        add_jobs(p)
        p.add_argument("--json", action="store_true",
                       help="emit the schema-pinned JSON report")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.family == "fc":
        shape = FCShape(m=args.m, k=args.k, n=args.n, dtype=args.dtype)
    else:
        shape = TBEShape(**{dim: getattr(args, dim) for dim in TBE_DIMS})
    space = MappingSpace(shape=shape)
    if not space.candidates():
        parser.error(f"the mapping space for {shape.describe()} is empty: "
                     "no sub-grid, tiling or placement is legal for it")
    result = autotune(shape, topk=args.topk, jobs=args.jobs, space=space)
    emit(result.to_dict() if args.json else render_text(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
