"""The flags the nine ``python -m repro.*`` CLIs share, and their writer.

Each shared flag is defined and validated here once, so a bad value
exits 2 with ``argument --FLAG: must be ...`` on every CLI alike;
:func:`emit` writes every report and trace.
"""

from __future__ import annotations

import argparse
import json
import math
import os
from typing import Callable, Dict, List, Optional, Sequence, Union


def bounded(kind, low, strict: bool = False):
    """An argparse ``type``: ``kind(text)``, rejected unless it is
    finite and ``>= low`` (``> low`` when ``strict``)."""
    what = "an integer" if kind is int else "a finite number"
    op = ">" if strict else ">="

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value)
                and (value > low if strict else value >= low)):
            raise argparse.ArgumentTypeError(
                f"must be {what} {op} {low}, got {text!r}")
        return value
    return parse


#: a count of things to run: workers, seeds, tables, candidates ...
COUNT = bounded(int, 1)
#: a seed; numpy's generators take only non-negative ones
SEED = bounded(int, 0)
#: a rate, a duration or a scale factor
POSITIVE = bounded(float, 0, strict=True)


def writable(directory: bool = False):
    """An argparse ``type`` for where output goes: a file (``-`` is
    stdout) in an existing directory, or with ``directory`` an existing
    directory.  A bad path then fails before the run, not after it."""
    def parse(text: str):
        if directory:
            if not os.path.isdir(text):
                raise argparse.ArgumentTypeError(
                    f"must be an existing directory, got {text!r}")
        elif text != "-" and (os.path.isdir(text) or not os.path.isdir(
                os.path.dirname(text) or ".")):
            raise argparse.ArgumentTypeError(
                f"must be a file in an existing directory, got {text!r}")
        return text
    return parse


#: a report or trace file, or ``-`` for stdout
OUTPUT = writable()
#: a directory reports are written into
OUTPUT_DIR = writable(directory=True)


def comma_list(item: Callable = str,
               choices: Optional[Sequence[str]] = None):
    """An argparse ``type`` for ``a,b,c``: a non-empty tuple of
    ``item(part)`` values, each one of ``choices`` when given."""
    def parse(text: str):
        values = tuple(item(part.strip()) for part in text.split(",")
                       if part.strip())
        if not values:
            raise argparse.ArgumentTypeError(
                f"must be a non-empty comma list, got {text!r}")
        if choices is not None and not set(values) <= set(choices):
            unknown = sorted(set(values) - set(choices))
            raise argparse.ArgumentTypeError(
                f"must be chosen from {','.join(choices)}, got "
                f"{','.join(unknown)}")
        return values
    return parse


def add_jobs(parser: argparse.ArgumentParser,
             help: str = "worker processes (default 1 = serial); "
             "results are identical at any job count") -> None:
    """``--jobs N``, N >= 1."""
    parser.add_argument("--jobs", type=COUNT, default=1, metavar="N",
                        help=help)


def add_seed(parser: argparse.ArgumentParser, flag: str = "--seed",
             help: str = "seed (default 0)") -> None:
    """A seed flag (``--seed`` or ``--seed-start``), >= 0, default 0."""
    parser.add_argument(flag, type=SEED, default=0, help=help)


def add_seeds(parser: argparse.ArgumentParser, default: int,
              help: str) -> None:
    """``--seeds N``, N >= 1: a run over zero seeds checks nothing."""
    parser.add_argument("--seeds", type=COUNT, default=default,
                        metavar="N", help=help)


def add_sim_cache(parser: argparse.ArgumentParser, help: str) -> None:
    """``--sim-cache [WHERE]``: ``mem`` (bare flag) or a directory."""
    parser.add_argument("--sim-cache", default=None, metavar="WHERE",
                        const="mem", nargs="?", help=help)


def use_sim_cache(where: Optional[str]) -> None:
    """Point ``REPRO_SIM_CACHE`` at ``where`` for this process and the
    workers it spawns (they inherit the environment); None is a no-op."""
    if where:
        os.environ["REPRO_SIM_CACHE"] = where
        from repro.simcache import reset_env_cache
        reset_env_cache()


def emit(report: Union[str, Dict, List], path: Optional[str] = None,
         what: str = "report") -> None:
    """Write one report or trace: to stdout when ``path`` is None or
    ``"-"``, else to the file ``path`` plus one ``wrote WHAT to PATH``
    line on stdout.  A ``str`` is written as it is; anything else is a
    JSON report, indented and with sorted keys."""
    text = (report if isinstance(report, str)
            else json.dumps(report, indent=2, sort_keys=True))
    if path in (None, "-"):
        print(text)
        return
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print(f"wrote {what} to {path}")
