"""Run one totlat CLI call in this fresh interpreter and report its cost.

    python3 perfbench/child.py OUT_FILE [TRACE_FILE CALL_ID] -- ARGV...
    python3 perfbench/child.py --probe

The call's standard output goes to OUT_FILE.  The last line printed is a JSON
object with `setup_s` (CPU time from interpreter start to the end of
`import totlat.cli`), `cpu_s` (CPU time of the call itself), `peak_rss_mib`,
`exit` and `error`.  With TRACE_FILE, spans and counters around calls into
totlat's layers are recorded in memory and written there when the call ends.
`--probe` only imports and reports `setup_s`.  totlat must be importable
(PYTHONPATH=src).
"""

import time

import totlat.cli

SETUP_S = time.process_time()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def peak_rss_mib():
    """High-water resident set of this process, from /proc where available.

    ru_maxrss is not used first because it can carry the parent's high-water
    mark across exec.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(out_path, argv):
    """Call totlat.cli.main(argv) with stdout sent to out_path."""
    error = None
    real_stdout = sys.stdout
    start = time.process_time()
    with open(out_path, "w", encoding="utf-8") as fh:
        sys.stdout = fh
        try:
            code = totlat.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = None
            error = traceback.format_exc()
        finally:
            sys.stdout = real_stdout
    cpu = time.process_time() - start
    return {"setup_s": SETUP_S, "cpu_s": cpu, "peak_rss_mib": peak_rss_mib(),
            "exit": code, "error": error}


def main(args):
    if args == ["--probe"]:
        print(json.dumps({"setup_s": SETUP_S}))
        return 0
    sep = args.index("--")
    opts, argv = args[:sep], args[sep + 1:]
    tracer = None
    if len(opts) == 3:
        import tracing

        tracer = tracing.Tracer(call_id=opts[2])
        tracing.install(tracer)
    elif len(opts) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    result = run(opts[0], argv)
    if tracer is not None:
        tracer.write(opts[1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
