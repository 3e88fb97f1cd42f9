"""Host-time benchmark of the simulator; see README.md."""
