"""End-to-end benchmark of the dead-reckoning reproduction (see README.md)."""
