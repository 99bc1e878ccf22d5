"""``python -m spinqpt``: the command-line interface of :mod:`spinqpt.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
