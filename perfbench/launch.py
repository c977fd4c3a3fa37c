"""Start a ``repro`` CLI command, optionally with layer tracing.

Usage::

    python perfbench/launch.py [--trace-out SPANS.json] -- serve --listen ...

With ``--trace-out`` the layer wrappers of :mod:`tracing` are installed
before ``repro.run.cli.main`` runs, and the spans are written to the
given path when the command returns (the daemons return on SIGINT).
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from repro.run.cli import main as cli_main

    tracer = None
    if trace_out:
        import tracing

        tracer = tracing.install(tracing.Tracer())
    try:
        return cli_main(argv)
    finally:
        if tracer is not None:
            tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
