"""Out-of-process benchmark of the SIERRA reproduction (see README.md)."""
