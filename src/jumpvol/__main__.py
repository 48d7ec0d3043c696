"""`python -m jumpvol`: the command-line interface, as the `jumpvol` script."""

from .cli import main

if __name__ == "__main__":
    main()
