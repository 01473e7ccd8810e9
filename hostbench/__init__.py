"""Host-time benchmark of the simulator and crash campaign (see ``run.py``)."""
