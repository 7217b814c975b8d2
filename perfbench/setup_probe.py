"""Time one fresh-process set-up and print it in seconds.

Usage: ``PYTHONPATH=src python3 perfbench/setup_probe.py <config.json>``

The clock starts before ``adaptlab`` is imported and stops once the engine
is constructed, so it covers the import, config validation, topology,
option enumeration and ``AdaptationEngine.__init__``. ``run.py`` starts
this script several times per run and reports the median as ``setup_s``.
"""

import sys
from time import perf_counter


def main(config_path: str) -> None:
    start = perf_counter()
    import drive  # imports adaptlab

    drive.build(config_path)
    print(repr(perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1])
