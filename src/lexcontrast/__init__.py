"""Tools that make distributional vectors tell synonyms from antonyms.

Two routes over one corpus: re-weighting sparse LMI features by
synonym/antonym contrast, and training skip-gram embeddings with a
per-context contrast term. Plus the ranking/correlation metrics to compare
them.
"""

__version__ = "0.1.0"
