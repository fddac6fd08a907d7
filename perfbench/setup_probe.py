"""Set-up time of one magsys-lab command, in a fresh process.

Usage: python3 perfbench/setup_probe.py SRC_DIR CONFIG

Times ``import magsys_lab`` (with ``magsys_lab.cli``), ``cli.parse_config``
and ``syslab.build_system`` (the volume-normalisation quadrature included)
and prints the times as one JSON object.
"""

import json
import sys
import time


def main():
    src, config = sys.argv[1], sys.argv[2]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from magsys_lab import cli, syslab
    t1 = time.perf_counter()
    cfg, _, _ = cli.parse_config(config)
    t2 = time.perf_counter()
    syslab.build_system(cfg)
    t3 = time.perf_counter()
    print(json.dumps({"setup_s": t3 - t0, "import_s": t1 - t0,
                      "parse_s": t2 - t1, "build_s": t3 - t2}))


if __name__ == "__main__":
    main()
