"""``python -m repro.timeline``: the same as ``python -m repro timeline``."""

import sys

from repro.__main__ import main

if __name__ == "__main__":
    sys.exit(main(["timeline", *sys.argv[1:]]))
