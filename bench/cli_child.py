"""Run one nhwind command under the span tracer.

Used for the traced passes of the ``cli`` workload in place of
``python -m nhwind.cli``.  The command's own output and exit code are
unchanged; the span summary goes to stderr as one line that starts
with ``spans.MARK``.
"""
import json
import sys

import nhwind.cli

from spans import MARK, Tracer

if __name__ == "__main__":
    tracer = Tracer()
    code = 1
    try:
        with tracer:
            code = nhwind.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        sys.stderr.write(MARK + json.dumps(tracer.summary()) + "\n")
    sys.exit(code)
