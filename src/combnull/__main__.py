"""``python -m combnull <cmd>``: the same entry point as the ``combnull`` script."""

from .cli import main

if __name__ == "__main__":
    main()
