"""Paper-shaped benchmark of the ranking and serving stack (see README.md)."""
