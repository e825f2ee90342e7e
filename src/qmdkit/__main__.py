"""`python -m qmdkit`: the same command line as the `qmdkit` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
