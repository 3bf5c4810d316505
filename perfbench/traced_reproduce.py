"""Traced ``repro reproduce``: installs the layer wrappers, then runs the CLI.

Usage: ``python -X importtime perfbench/traced_reproduce.py RECORD.json``.
The import-time log on stderr gives the ``import`` layer; the layer
totals and spans of the run itself are written to ``RECORD.json``.
The exit code is the CLI's.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from layers import LayerTracer  # noqa: E402


def main(record_path: str) -> int:
    # import everything the reproduction uses up front, so its imports
    # land in the import-time log and not inside a wrapped layer
    import repro.campaign.runners  # noqa: F401
    import repro.cli
    import repro.experiments.report  # noqa: F401
    import repro.validation  # noqa: F401

    tracer = LayerTracer()
    tracer.install()
    try:
        code, _ = tracer.unit(lambda: repro.cli.main(["reproduce"]))
    finally:
        tracer.uninstall()
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.to_json(), handle)
    return int(code or 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
