#!/usr/bin/env python3
"""Reproduce the paper's full b14 evaluation — a thin CLI demo.

Runs every experiment of Lopez-Ongil et al. (DATE 2005) on the
Viper-style b14 (32 inputs / 54 outputs / 215 flip-flops, 160 stimulus
vectors, 34,400 single faults) through the campaign CLI. Equivalent to::

    python -m repro report --circuit b14

Any extra arguments are forwarded (e.g. ``--workers 4`` to shard the
grading over shard threads, ``--no-crossover`` to skip the sweep).

Run:  python examples/b14_campaign.py
"""

import sys

from repro.run.cli import main

if __name__ == "__main__":
    sys.exit(main(["report", "--circuit", "b14", *sys.argv[1:]]))
