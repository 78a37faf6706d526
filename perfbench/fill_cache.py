"""Benchmark set-up: import metareduce, parse a config, fill its kernel cache.

Run as ``python3 fill_cache.py CONFIG [--kernels]`` in a fresh process with
``src`` on PYTHONPATH and METAREDUCE_CACHE naming an empty directory; the
caller times the whole process.  With ``--kernels`` every sigma of the config
gets its kernel discretized and saved, as a cold CLI run would do.
"""

import os
import sys
from pathlib import Path


def fill_cache(config_path, kernels):
    import numpy as np

    from metareduce.config import load_config
    from metareduce.grid import Grid
    from metareduce.kernel import discretize_kernel, save_kernel

    cfg = load_config(config_path)
    if not kernels:
        return 0
    cache_dir = Path(os.environ.get("METAREDUCE_CACHE", cfg.cache_dir))
    grid = Grid.from_box(np.asarray(cfg.box, float), cfg.grid_nodes)
    for sigma in cfg.sigmas:
        model = cfg.build_model(sigma)
        save_kernel(cache_dir, model, grid, discretize_kernel(model, grid))
    return len(cfg.sigmas)


if __name__ == "__main__":
    print(fill_cache(sys.argv[1], "--kernels" in sys.argv[2:]))
