"""Run ``repro serve`` inside an obs session and export it on exit.

``python3 perfbench/serve_launcher.py <trace.json> serve [serve args...]``

The server opens an obs session of its own only when none is active, so
opening one first, through the public ``repro.obs`` API, keeps every
span and counter of the server process in memory; when the server stops
(a ``shutdown`` request) the session is written to ``<trace.json>`` for
the traced ``serve`` run to read.
"""

import sys

import layers


def main(argv):
    from repro import obs
    from repro.cli import main as repro_main

    trace_path, args = argv[0], argv[1:]
    # perf_counter is system-wide on Linux, so the anchor lets the harness
    # place the server's spans on its own clock.
    anchor = obs.start().anchor
    try:
        code = repro_main(args)
    finally:
        layers.write_trace(obs.stop(), trace_path, anchor=anchor)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
