"""The end-to-end benchmark (run it through ``run.py``)."""
