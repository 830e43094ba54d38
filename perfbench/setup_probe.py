"""Time the set-up every smoothcert subcommand pays before its first unit of work.

Usage: python perfbench/setup_probe.py [SUBCOMMAND=CONFIG ...]

Imports smoothcert.cli, then builds the dataset of each given config with
config.build_dataset, and prints the elapsed seconds as JSON. The clock
starts before the import, so numpy's import is part of the set-up.
"""

import json
import sys
import time


def main(argv) -> int:
    t0 = time.perf_counter()
    import smoothcert.cli  # noqa: F401  (the import is what is timed)
    from smoothcert.config import SCHEMAS, apply_schema, build_dataset, load_config

    for item in argv:
        command, path = item.split("=", 1)
        cfg = apply_schema(load_config(path), SCHEMAS[command])
        build_dataset(cfg, "train" if command == "train" else "test")
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
