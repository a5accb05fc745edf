"""One benchmark sample: run an ``incdur`` CLI subcommand in this fresh
process and write its timings to ``<out>/child.json``.

    python3 bench/child.py ROOT SUBCOMMAND CONFIG OUT SPAWNED TRACE

ROOT is the checkout whose ``src/`` is imported; SPAWNED is the parent's
``time.monotonic()`` just before it started this process (the clock is
system-wide on Linux); TRACE is 0 or 1. Set-up is the time from SPAWNED until
the subcommand's work begins: interpreter start, ``import incdur``, config
parsing and the CSV load (the CLI's own ``load`` stage in ``manifest.json``).
"""

import time  # first, so nothing else runs before the import clock starts
import sys


def main(argv):
    root, subcommand, config, out, spawned, trace = argv
    src = f"{root}/src"
    sys.path.insert(0, src)
    import_start = time.monotonic()
    import incdur.cli as cli
    imported = time.monotonic()

    import hashlib
    import json
    import os
    import resource

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"incdur was imported from {cli.__file__}, not {src}")

    tracer = None
    if trace == "1":
        from tracer import Tracer, install

        tracer = Tracer(os.path.basename(out))
        install(tracer)

    start, cpu_start = time.monotonic(), time.process_time()
    rc = cli.main([subcommand, "--config", config, "--out", out, "--workers", "1"])
    end, cpu_end = time.monotonic(), time.process_time()
    result = {"rc": rc}
    if rc == 0:
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        load_s = manifest["stage_seconds"]["load"]
        digests = {}
        for name in manifest["files"]:
            with open(os.path.join(out, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        import numpy
        import scipy

        result.update(
            setup_s=(imported - float(spawned)) + load_s,
            wall_s=(end - start) - load_s,
            cpu_s=(cpu_end - cpu_start) - load_s,
            import_s=imported - import_start,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            files=manifest["files"],
            digests=digests,
            versions={"python": sys.version.split()[0],
                      "numpy": numpy.__version__, "scipy": scipy.__version__},
        )
        if tracer is not None:
            result["layers"] = tracer.metrics()
            tracer.write_spans(os.path.join(out, "spans.csv"))
    with open(os.path.join(out, "child.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
