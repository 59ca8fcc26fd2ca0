"""``python -m bvdouble verify ...`` runs the command-line checker."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
