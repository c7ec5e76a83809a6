"""Run the quartics command line with span recording, for the traced cli run.

Usage: python3 -X importtime perfbench/cli_boot.py SRC_DIR CLI_ARGS...

Imports ``quartics.cli`` from SRC_DIR, installs the span wrappers, calls
``quartics.cli.main`` and exits with its code.  Stdout is the command's own
output, unchanged.  At exit one line on stderr, prefixed ``PERFBENCH-TRACE``,
carries the interpreter start, the import window and the spans as JSON.
"""

import time

started = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

import tracing  # noqa: E402

importing = time.perf_counter()
import quartics.cli  # noqa: E402

imported = time.perf_counter()

rec = tracing.Recorder()
rec.install()
try:
    code = quartics.cli.main(sys.argv[2:])
finally:
    rec.uninstall()
sys.stdout.flush()
info = {"started": started, "importing": importing, "imported": imported, "spans": rec.spans,
        "restriction_cache": quartics.bitangent._restriction_coefficients_cached.cache_info()[:2]}
print("PERFBENCH-TRACE " + json.dumps(info), file=sys.stderr)
sys.exit(code)
