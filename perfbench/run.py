#!/usr/bin/env python3
"""Build and run the benchmark (see README.md):

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Runs `dune exec perfbench/main.exe` with dune's root pinned to the checkout
that holds this file, so that a dune project enclosing the checkout cannot
become the build root, and with dune's shared cache off, so that the build
writes nothing outside the checkout.  The process becomes dune, and dune
becomes the benchmark: nothing is left running when it exits.
"""

import os
import sys

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
os.chdir(root)
os.execvp("dune", ["dune", "exec", "--root", root, "--no-print-directory",
                   "--cache=disabled", "perfbench/main.exe", "--"] + sys.argv[1:])
