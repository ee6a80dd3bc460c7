"""Run ``bohrmap.cli.main`` under the benchmark's tracer and save its spans.

    python perfbench/cli_shim.py SPANS_JSON [bohrmap arguments...]

Stdout and the exit code are those of ``python -m bohrmap``; the spans go
to SPANS_JSON for the parent benchmark process to merge.
"""

import sys

from tracer import Tracer

import bohrmap
import bohrmap.cli


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install(bohrmap)
    try:
        code = bohrmap.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        tracer.save(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
