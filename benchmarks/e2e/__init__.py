"""The repo's one benchmark: the serve path, end to end and layer by layer.

See ``README.md`` in this directory; the entry point is ``run.py``.
"""
