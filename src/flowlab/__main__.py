"""``python -m flowlab``: the same command line as the ``flowlab`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
