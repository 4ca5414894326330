"""Entry point for python -m hivecount: the same command line as the hivecount script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
