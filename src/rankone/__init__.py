"""Exact verification lab for a rank-one cutting-and-stacking flow."""
