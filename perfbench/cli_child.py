"""Run one rovib CLI call with spans on; the traced twin of

    python -c "from rovib.cli import main; main()" ARGS...

Usage: python cli_child.py ARGS...  (with rovib importable).  The CLI's
stdout and exit code pass through unchanged; the span summary goes to
stderr as the last line, after TRACE_MARKER.
"""

from __future__ import annotations

import json
import sys

import spans

TRACE_MARKER = "@@perfbench-spans "


def main() -> None:
    import rovib.cli

    tracer = spans.Tracer()
    tracer.install()
    tracer.request_id = 0
    tracer.active = True
    try:
        with tracer.span("bench.request"):
            rovib.cli.main()
    finally:
        tracer.active = False
        tracer.uninstall()
        sys.stdout.flush()
        sys.stderr.write(TRACE_MARKER + json.dumps(tracer.summary()) + "\n")


if __name__ == "__main__":
    main()
