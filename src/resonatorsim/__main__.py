"""Entry point for ``python -m resonatorsim``; the same commands as the
``resonatorsim`` console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
