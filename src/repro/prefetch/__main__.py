"""``python -m repro.prefetch``: the same as ``python -m repro prefetch``."""

import sys

from repro.__main__ import main

if __name__ == "__main__":
    sys.exit(main(["prefetch", *sys.argv[1:]]))
