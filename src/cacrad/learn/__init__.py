"""Classifiers, splitting, and cross-validated grid search."""
