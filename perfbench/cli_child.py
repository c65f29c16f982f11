"""Traced stand-in for ``python -m opsloss`` used by the cli workload's traced run.

Runs ``opsloss.cli.main`` on the given arguments with the import, the
subcommand and every layer call inside it recorded as spans, then writes
the spans as one ``#spans <json>`` line on standard error. Standard
output and the exit code are the CLI's own.
"""

import json
import sys
from dataclasses import asdict

from spans import Tracer

tracer = Tracer()
with tracer.span("cli.import"):
    import opsloss.cli
from layers import patch_modules  # noqa: E402  (after the timed import)

patch_modules(tracer)
with tracer.span(f"cli.main.{sys.argv[1]}"):
    code = opsloss.cli.main(sys.argv[1:])
sys.stdout.flush()
print("#spans " + json.dumps([asdict(s) for s in tracer.spans]), file=sys.stderr)
sys.exit(code)
