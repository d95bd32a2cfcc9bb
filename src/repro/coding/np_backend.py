"""Read only by the frozen ``bench/measure.py``, which records this constant in
every result file's ``env``; delete the module when a ``benchmark`` PR drops
that line."""

DEFAULT_BACKEND = "table"
