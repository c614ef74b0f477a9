"""``python -m repro.bench``: the same as ``python -m repro bench``."""

import sys

from repro.__main__ import main

if __name__ == "__main__":
    sys.exit(main(["bench", *sys.argv[1:]]))
