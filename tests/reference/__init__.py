"""Independent reference implementations used as test oracles only."""
