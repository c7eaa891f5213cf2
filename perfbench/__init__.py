"""Repository benchmark for the repro library (see ``run.py``)."""
