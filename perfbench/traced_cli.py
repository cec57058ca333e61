"""Run one ``lpevac`` command line with the tracer installed.

    python3 perfbench/traced_cli.py TRACE.json ARG...

behaves as ``lpevac ARG...`` (same output, same exit status) and, when the
command ends, writes the aggregated spans to TRACE.json.
"""
import json
import sys

import tracer


def run(trace_path: str, argv: list[str]) -> int:
    t = tracer.Tracer()
    unwrapped = tracer.install(t)
    from lpevac import cli

    code = 2
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        doc = t.summary()
        doc["cache_entries"] = tracer.cache_entries()
        doc["unwrapped"] = unwrapped
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
