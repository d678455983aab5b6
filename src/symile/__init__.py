"""Contrastive learning for any number of modalities via multilinear
inner products, with an exact discrete information oracle.

Import from the submodules: ``symile.data``, ``symile.train``,
``symile.evaluation``, ``symile.oracle`` and so on."""

__version__ = "0.1.0"
