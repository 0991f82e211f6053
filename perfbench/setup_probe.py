"""Time one fresh interpreter's set-up: package import, config load, grid build.

Usage: python3 perfbench/setup_probe.py CONFIG   (src/ on PYTHONPATH)
Prints one JSON object of seconds per step.
"""

import json
import sys
import time


def main(config: str):
    start = time.perf_counter()
    import pointersim
    from pointersim import cli
    imported = time.perf_counter()
    cfg = cli.load_config(config)
    loaded = time.perf_counter()
    pointersim.build_grid(cfg.model.omega_max, cfg.grid_m, cfg.grid_scheme, avoid=cfg.model.levels)
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "load_config_s": loaded - imported,
                      "build_grid_s": built - loaded, "setup_s": built - start}))


if __name__ == "__main__":
    main(sys.argv[1])
