"""`python -m termsieve`: the same commands as the `termsieve` script."""

from .cli import main

main()
