"""Fresh-interpreter helper of the benchmark; started by run.py, never by hand.

    child.py setup <workload> <seed> <dir>
        Imports jsonschema, numpy and schmidt_gates.cli in the order the CLI
        does, generates the workload's inputs into <dir>, and prints the
        import times as one JSON line.

    child.py cli <trace.json> <cmd> <scenario> --out <file>
        One traced cold CLI item: imports schmidt_gates.cli, wraps the
        layers, runs cli.main and writes the aggregated spans, with the
        import as a cli span, to <trace.json>. Exits with main's status.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def setup(workload: str, seed: int, out_dir: str) -> None:
    t0 = time.perf_counter()
    import jsonschema  # noqa: F401
    t1 = time.perf_counter()
    import numpy  # noqa: F401
    t2 = time.perf_counter()
    import schmidt_gates.cli  # noqa: F401
    t3 = time.perf_counter()
    from workloads import make_round, write_inputs

    write_inputs(make_round(workload, seed, ROOT), Path(out_dir))
    print(json.dumps({"import_jsonschema_s": t1 - t0,
                      "import_numpy_s": t2 - t1, "import_s": t3 - t0,
                      "generate_s": time.perf_counter() - t3}))


def traced_cli(trace_path: str, argv: list) -> int:
    t0 = time.perf_counter()
    import schmidt_gates.cli as cli
    import_s = time.perf_counter() - t0
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.remove()
        tracer.calls["cli.import"] += 1
        tracer.inclusive["cli.import"] += import_s
        tracer.layer_self["cli"] += import_s
        Path(trace_path).write_text(json.dumps(tracer.snapshot()),
                                    encoding="utf-8")
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], int(sys.argv[3]), sys.argv[4])
    else:
        raise SystemExit(traced_cli(sys.argv[2], sys.argv[3:]))
