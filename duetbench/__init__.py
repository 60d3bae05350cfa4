"""Host-time benchmark of the Duet reproduction; see ``README.md``."""
