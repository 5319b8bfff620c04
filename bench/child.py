"""One maxwellsim CLI invocation, as the benchmark launches it.

    python3 bench/child.py REPORT TRACE COMMAND --config PATH --output PATH

Imports ``maxwellsim.cli``, runs ``cli.main`` on the arguments after TRACE and
exits with its code.  REPORT receives a JSON object: the monotonic clock
reading once ``maxwellsim.cli`` is imported (the parent reads the same clock
before it starts the process), the imported file, and the recorded spans.
With TRACE 0 only ``parse_config`` is wrapped; with TRACE 1 every lookup in
``tracing.TRACED`` is.
"""

import json
import sys
import time


def main() -> int:
    report_path, trace_flag, *cli_args = sys.argv[1:]
    from maxwellsim import cli

    imported = time.monotonic()
    import tracing

    recorder = tracing.Recorder()
    recorder.install(tracing.TRACED if trace_flag == "1" else tracing.PARSE)
    code = cli.main(cli_args)
    with open(report_path, "w") as handle:
        json.dump({"imported": imported, "package": cli.__file__,
                   "spans": recorder.spans()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
