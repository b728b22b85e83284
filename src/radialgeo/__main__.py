"""Command line entry point: ``python -m radialgeo``."""

from .pipeline import main

if __name__ == "__main__":
    main()
