"""End-to-end benchmark of the whole engine (see README.md beside this file)."""
