"""`python -m pencilred`: the command-line interface, as `pencilred`."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
