"""Set-up probe, run as a fresh interpreter for every ``setup_s`` sample.

Usage: ``python3 setup_probe.py SRC_DIR CONFIGS_JSON``.  Imports the CLI
module (everything a CLI call loads), parses and builds every generated
config, then prints one JSON line with its own timings.  The parent
process stops its clock when that line arrives.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    src, configs = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import pwmstab.cli  # noqa: F401
    from pwmstab import config

    t_import = time.perf_counter()
    with open(configs, encoding="utf-8") as fh:
        texts = json.load(fh)
    for text in texts:
        config.build(config.parse_config(text))
    t_config = time.perf_counter()
    print(
        json.dumps(
            {
                "import_s": t_import - T_START,
                "config_ms": (t_config - t_import) * 1e3,
                "items": len(texts),
            }
        ),
        flush=True,
    )


if __name__ == "__main__":
    main()
