"""Independent reference implementations and fixtures used by tests only."""
