"""Run one marketstates CLI job in this process and report on it.

Usage: python3 perfbench/job.py REPORT_JSON TRACE -- SUBCOMMAND [FLAGS...]

The package is imported from ``src`` (the caller sets PYTHONPATH), then
``marketstates.cli.main`` runs with the given arguments, as the installed
console script would. With TRACE=1 the layer wrappers of ``spans`` are
installed first and the report carries their per-layer summary. The
process exits with the CLI's own exit code.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    report_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        print(__doc__, file=sys.stderr)
        return 1
    import marketstates.cli as cli

    import_s = time.perf_counter() - T0
    tracer = None
    if trace == "1":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    t_main = time.perf_counter()
    rc = cli.main(argv)
    report = {"rc": rc, "import_s": import_s}
    if tracer is not None:
        report["layers"] = tracer.summary(t_main, time.perf_counter())
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
