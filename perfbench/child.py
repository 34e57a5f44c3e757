"""One workload process: import bchsim, parse the configs, run the commands.

Started by run.py with a JSON job file; writes its measurements to the
result path the job names.  Set-up time runs from the parent's monotonic
clock reading just before this process was started (passed in the job) to
the end of config parsing, before any numerical call.  With "setup_only"
the process stops there.  With "trace" the layers are wrapped (tracing.py)
before the first command and the spans are written next to the result.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    t_import = time.monotonic()
    import bchsim.cli
    from bchsim.config import parse_config_file

    t_parse = time.monotonic()
    for cfg in job["configs"]:
        parse_config_file(cfg)
    t_ready = time.monotonic()
    result = {
        "bchsim": bchsim.cli.__file__,
        "setup_s": t_ready - job["t_spawn"],
        "import_s": t_parse - t_import,
        "parse_s": t_ready - t_parse,
    }
    if not job["setup_only"]:
        tracer = None
        if job["trace"]:
            from tracing import Tracer, layer_metrics

            tracer = Tracer()
            tracer.install()
        commands = []
        for argv in job["commands"]:
            start = time.perf_counter()
            try:
                code = bchsim.cli.main(argv)
                error = None
            except Exception:  # a crash of one command must not hide the others
                code, error = -1, traceback.format_exc()
            commands.append({"argv": argv, "exit": code, "seconds": time.perf_counter() - start,
                             "error": error})
        result["commands"] = commands
        result["wall_s"] = sum(c["seconds"] for c in commands)
        if tracer is not None:
            tracer.write(Path(job["result"]).with_name("spans.csv"))
            result["layers"] = layer_metrics(tracer.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
