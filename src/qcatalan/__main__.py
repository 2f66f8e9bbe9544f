"""``python -m qcatalan``: the same command line as the ``qcatalan`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
