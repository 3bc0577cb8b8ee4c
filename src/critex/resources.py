"""Paths to the data bundled with the package.

The package ships a small curated knowledge base and a 20-record annotated
corpus (criteria-style texts with Brat gold) used by the demos and the
acceptance suite.
"""

from __future__ import annotations

from pathlib import Path


def _data_dir() -> Path:
    # beside this module, where the package is installed; read through
    # ``__file__`` rather than ``importlib.resources``, which on some
    # Pythons imports ``inspect`` and adds its import time to every command
    return Path(__file__).parent / "data"


def bundled_kb_path() -> Path:
    """The curated mini knowledge base shipped with the package."""

    return _data_dir() / "mini_kb.json"


def mini_corpus_dir() -> Path:
    """Directory of bundled .txt records with .ann gold annotations."""

    return _data_dir() / "mini_corpus"
